// City-scale event-kernel benchmark: drives the CityEngine population
// workload (busy-hour attach front, paging, drive-route location updates,
// far-future guard timers) through the sharded timer-wheel kernel and, for
// comparison, through the seed binary-heap kernel on the same workload.
//
// The sweep reports events/sec, wall seconds, bytes/UE and the determinism
// digest per population size; at the baseline comparison size it prints the
// wheel-vs-heap speedup. Digests are checked serial-vs-parallel on every
// wheel run, so a perf gain that broke determinism fails loudly here before
// any golden does.
//
// Usage:  ./perf_city [options]
//   --bench-json PATH   machine-readable report (default BENCH_perf_city.json)
//   --quick             small smoke sweep for CI
//   --full              extend the sweep to 1M UEs
//   --ues N             single run at N UEs instead of the sweep
//   --jobs N            worker threads for wheel runs (0 = hardware)
// Malformed values exit 2: --ues outside [1, 2^32 - 1], a negative --jobs,
// a negative or non-numeric --seed.
//   --baseline          single run uses the heap kernel
//   --emit-trace        single run prints its sampled QXDM trace to stdout
//   --overload          single run starves attach admission (storm/backoff)
//   --seed S            workload seed (default 1)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "par/pool.h"
#include "stack/city.h"
#include "trace/qxdm.h"
#include "util/args.h"

namespace cnv {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CityOutcome {
  std::string name;
  std::uint32_t ues = 0;
  std::string kernel;
  int jobs = 1;
  stack::CityReport report;
  double wall_seconds = 0;
  double events_per_sec = 0;
  bool digest_checked = false;  // serial-vs-parallel byte-identity
  bool digest_ok = true;
};

stack::CityConfig ConfigFor(std::uint32_t ues, std::uint64_t seed) {
  stack::CityConfig cfg;
  cfg.ues = ues;
  // Cell count grows with the population: ~250 UEs/cell, at least 16 cells.
  cfg.cells = std::max<std::uint32_t>(16, ues / 250);
  cfg.horizon = Minutes(10);
  cfg.seed = seed;
  // Busy-hour density: sessions every ~30 s, pages every ~45 s, cell dwell
  // ~1 min on the drive routes. This is the load regime the paper measures
  // (peak-hour metro signalling), and the regime where kernel choice
  // matters — hundreds of thousands of events in flight keep the seed
  // heap's log(n) pops and tombstone churn on every critical path.
  cfg.activity_mean_s = 30.0;
  cfg.paging_mean_s = 45.0;
  cfg.dwell_mean_s = 60.0;
  // Keep the sampled trace volume roughly constant across sizes.
  cfg.sample_every = std::max<std::uint32_t>(1, ues / 64);
  return cfg;
}

// Events/sec counts productive (non-tombstone) executions only, so the two
// kernels are scored on identical numerators for a given workload: the heap
// is not credited for popping tombstones, and the wheel is not credited for
// the handful of stale entries its reaper misses.
double ProductiveEps(const stack::CityReport& r, double wall) {
  if (wall <= 0) return 0.0;
  return static_cast<double>(r.events_executed - r.stale_events) / wall;
}

CityOutcome RunCity(const std::string& name, const stack::CityConfig& cfg,
                    stack::CityKernelMode mode, int jobs,
                    bool check_determinism) {
  CityOutcome out;
  out.name = name;
  out.ues = cfg.ues;
  out.kernel = mode == stack::CityKernelMode::kWheel ? "wheel" : "heap";
  out.jobs = mode == stack::CityKernelMode::kWheel ? jobs : 1;

  par::WorkerPool pool(out.jobs);
  stack::CityEngine engine(cfg, mode);
  const double t0 = Now();
  out.report = engine.Run(out.jobs > 1 ? &pool : nullptr);
  out.wall_seconds = Now() - t0;
  out.events_per_sec = ProductiveEps(out.report, out.wall_seconds);

  if (check_determinism && mode == stack::CityKernelMode::kWheel &&
      out.jobs > 1) {
    stack::CityEngine serial(cfg, mode);
    const stack::CityReport sr = serial.Run(nullptr);
    out.digest_checked = true;
    out.digest_ok = sr.digest == out.report.digest &&
                    sr.events_executed == out.report.events_executed &&
                    sr.trace_emitted == out.report.trace_emitted;
  }
  return out;
}

void PrintRow(const CityOutcome& o) {
  std::printf(
      "%-22s %8u UEs  %-5s jobs=%-2d %9.3fs  %12.0f ev/s  %9llu ev  "
      "%5.1f B/UE  digest=%016llx%s\n",
      o.name.c_str(), o.ues, o.kernel.c_str(), o.jobs, o.wall_seconds,
      o.events_per_sec, (unsigned long long)o.report.events_executed,
      o.report.bytes_per_ue, (unsigned long long)o.report.digest,
      o.digest_checked ? (o.digest_ok ? "  [serial==parallel]"
                                      : "  [DETERMINISM BROKEN]")
                       : "");
}

std::string JsonRow(const CityOutcome& o) {
  const auto& r = o.report;
  return "    {\"name\": \"" + o.name + "\", \"ues\": " +
         std::to_string(o.ues) + ", \"kernel\": \"" + o.kernel +
         "\", \"jobs\": " + std::to_string(o.jobs) +
         ", \"wall_seconds\": " + std::to_string(o.wall_seconds) +
         ", \"events_per_sec\": " + std::to_string(o.events_per_sec) +
         ", \"events_executed\": " + std::to_string(r.events_executed) +
         ", \"events_cancelled\": " + std::to_string(r.events_cancelled) +
         ", \"stale_events\": " + std::to_string(r.stale_events) +
         ", \"reaped\": " + std::to_string(r.wheel.reaped) +
         ", \"bytes_per_ue\": " + std::to_string(r.bytes_per_ue) +
         ", \"arena_bytes\": " + std::to_string(r.arena_bytes) +
         ", \"attaches_completed\": " + std::to_string(r.attaches_completed) +
         ", \"handovers\": " + std::to_string(r.handovers) +
         ", \"storms_flagged\": " + std::to_string(r.storms_flagged) +
         ", \"windows\": " + std::to_string(r.windows) +
         ", \"shard_stalls\": " + std::to_string(r.shard_stalls) +
         ", \"cross_cell_messages\": " + std::to_string(r.cross_cell_messages) +
         ", \"trace_emitted\": " + std::to_string(r.trace_emitted) +
         ", \"trace_dropped\": " + std::to_string(r.trace_dropped) +
         ", \"digest\": \"" + std::to_string(r.digest) +
         "\", \"determinism_checked\": " +
         (o.digest_checked ? std::string("true") : std::string("false")) +
         ", \"determinism_ok\": " +
         (o.digest_ok ? std::string("true") : std::string("false")) + "}";
}

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  args::ArgParser parser(
      argc, argv,
      "usage: perf_city [--bench-json PATH] [--quick] [--full] [--ues N]\n"
      "                 [--jobs N] [--baseline] [--emit-trace] [--overload]\n"
      "                 [--seed S]");
  std::string json_path = "BENCH_perf_city.json";
  parser.StrValue("--bench-json", &json_path);
  const bool quick = parser.Flag("--quick");
  const bool full = parser.Flag("--full");
  const bool baseline = parser.Flag("--baseline");
  const bool emit_trace = parser.Flag("--emit-trace");
  const bool overload = parser.Flag("--overload");
  std::uint64_t ues = 0;
  const bool single = parser.U64Value("--ues", &ues);
  int jobs = 0;
  parser.IntValue("--jobs", &jobs, 0);
  std::uint64_t seed = 1;
  parser.U64Value("--seed", &seed);
  parser.Finish(0);
  if (single && (ues == 0 || ues > UINT32_MAX)) {
    parser.Fail("--ues must be in [1, " + std::to_string(UINT32_MAX) + "]");
  }
  const auto single_ues = static_cast<std::uint32_t>(ues);
  const int wheel_jobs = par::ResolveJobs(jobs);

  // Single-run mode: one population, optionally heap kernel / trace tap.
  if (single) {
    stack::CityConfig cfg = ConfigFor(single_ues, seed);
    if (overload) {
      // Capacity-starved variant: the attach front overwhelms admission, so
      // the run exercises T3346 backoff and the storm detector. Used by CI
      // to tap a city run into the rtv watchdog and assert overload alerts.
      cfg.attach_capacity = 8;
      cfg.storm_threshold = 30;
      cfg.storm_fraction = 0.9;
    }
    const auto mode =
        baseline ? stack::CityKernelMode::kHeap : stack::CityKernelMode::kWheel;
    par::WorkerPool pool(baseline ? 1 : wheel_jobs);
    stack::CityEngine engine(cfg, mode);
    if (emit_trace) {
      engine.set_trace_sink([](const trace::TraceRecord& r) {
        std::printf("%s\n", trace::FormatRecord(r).c_str());
      });
    }
    const double t0 = Now();
    const stack::CityReport rep = engine.Run(pool.jobs() > 1 ? &pool : nullptr);
    const double wall = Now() - t0;
    CityOutcome o;
    o.name = "single";
    o.ues = single_ues;
    o.kernel = baseline ? "heap" : "wheel";
    o.jobs = pool.jobs();
    o.report = rep;
    o.wall_seconds = wall;
    o.events_per_sec = ProductiveEps(rep, wall);
    if (!emit_trace) PrintRow(o);
    std::string json = "{\n  \"mode\": \"single\",\n  \"rows\": [\n" +
                       JsonRow(o) + "\n  ]\n}\n";
    if (!emit_trace && !obs::WriteFile(json_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    return 0;
  }

  // Sweep mode. The comparison size carries the wheel-vs-heap speedup claim.
  std::vector<std::uint32_t> sizes;
  std::uint32_t compare_ues;
  if (quick) {
    sizes = {10'000, 25'000};
    compare_ues = 10'000;
  } else {
    sizes = {10'000, 50'000, 100'000};
    if (full) sizes.push_back(1'000'000);
    compare_ues = 100'000;
  }

  std::printf("city busy-hour sweep (10 min horizon, jobs=%d)\n\n",
              wheel_jobs);
  std::vector<CityOutcome> rows;
  for (const std::uint32_t n : sizes) {
    rows.push_back(RunCity("wheel @ " + std::to_string(n),
                           ConfigFor(n, seed), stack::CityKernelMode::kWheel,
                           wheel_jobs, /*check_determinism=*/true));
    PrintRow(rows.back());
    if (!rows.back().digest_ok) {
      std::fprintf(stderr, "determinism broken at %u UEs\n", n);
      return 1;
    }
  }
  rows.push_back(RunCity("heap  @ " + std::to_string(compare_ues),
                         ConfigFor(compare_ues, seed),
                         stack::CityKernelMode::kHeap, 1,
                         /*check_determinism=*/false));
  PrintRow(rows.back());

  double wheel_eps = 0, heap_eps = 0;
  for (const auto& o : rows) {
    if (o.ues == compare_ues && o.kernel == "wheel") wheel_eps = o.events_per_sec;
    if (o.ues == compare_ues && o.kernel == "heap") heap_eps = o.events_per_sec;
  }
  const double speedup = heap_eps > 0 ? wheel_eps / heap_eps : 0;
  std::printf("\nwheel-vs-heap speedup @ %u UEs: %.2fx\n", compare_ues,
              speedup);

  std::string json = "{\n  \"compare_ues\": " + std::to_string(compare_ues) +
                     ",\n  \"jobs\": " + std::to_string(wheel_jobs) +
                     ",\n  \"speedup\": " + std::to_string(speedup) +
                     ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ",\n";
    json += JsonRow(rows[i]);
  }
  json += "\n  ]\n}\n";
  if (!obs::WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
