// perfbench: one command for the repository's three end-to-end workloads.
//
//   perfbench --workload pipeline|screen|watchdog --seed N
//             --seconds S --trace 0|1 [--tiny] [--source-id ID]
//
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it is a detail object: the host block, the
// workload's own metric names with units and sample counts, and any gate
// failures. Exit status 0 means the run completed (failed operations are
// reported in the result, not as an exit status); 2 is a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end names (selftest.py checks).
// Every workload reports each of these; README.md maps them to the
// workload's own names.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
};

// Must list exactly BENCHMARK.json's per_layer names. A traced run reports
// all of them; a layer the workload never calls reads 0.
constexpr Declared kPerLayer[] = {
    // pipeline: mean span time per cell, and dispatch accounting
    {"mck.explore_us", "us"},
    {"conf.compile_us", "us"},
    {"conf.replay_us", "us"},
    {"conf.abstract_us", "us"},
    {"conf.refine_us", "us"},
    {"rtv.monitor_us", "us"},
    {"core.classify_us", "us"},
    {"mck.states_per_cell", "count"},
    {"trace.records_per_cell", "count"},
    {"dist.busy_share", "ratio"},
    {"dist.overhead_us_per_cell", "us"},
    {"bench.cell_coverage_min", "ratio"},
    // screen: one sweep over every config and reduction mode
    {"mck.states_visited", "count"},
    {"mck.transitions", "count"},
    {"mck.ample_states", "count"},
    {"mck.represented_states", "count"},
    {"mck.frontier_peak", "count"},
    {"mck.states_per_s", "1/s"},
    {"mck.explore_ms.full", "ms"},
    {"mck.explore_ms.por", "ms"},
    {"mck.explore_ms.sym", "ms"},
    {"mck.explore_ms.por_sym", "ms"},
    // watchdog
    {"rtv.feed_us_per_mib", "us"},
    {"rtv.finish_s", "s"},
    {"rtv.inline_records_per_s", "1/s"},
    {"rtv.ring_ns_per_record", "ns"},
    {"rtv.queue_peak", "count"},
    {"rtv.records_dropped", "count"},
    {"rtv.lines_skipped", "count"},
    {"rtv.alerts", "count"},
    {"rtv.gen_late_ms", "ms"},
    // the tracer itself: traced pass wall minus untraced pass wall
    {"bench.trace_overhead_s", "s"},
    {"bench.trace_overhead_share", "ratio"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pipeline|screen|watchdog --seed N "
               "--seconds S --trace 0|1 [--tiny] [--source-id ID]\n",
               argv0);
  return 2;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricJson(const Metric& m) {
  return JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
         ", \"unit\": " + JsonString(m.unit) + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Jiffies of all CPUs from /proc/stat: the steal column and the total.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  double v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// `steal_share` is the share of the host's CPU time the hypervisor gave to
// other guests during the run: a run with a large share was slowed by the
// host, not by the program.
std::string HostJson(const Options& o, const CpuTicks& before,
                     const CpuTicks& after) {
  const double total = after.total - before.total;
  const double steal_share =
      total > 0 ? (after.steal - before.steal) / total : 0.0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"source\": " +
         JsonString(o.source_id.empty() ? "unknown" : o.source_id) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"steal_share\": " + JsonNumber(steal_share) + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (v == nullptr) {
      return Usage(argv[0]);
    } else if (a == "--workload") {
      o.workload = v;
      have_workload = true;
      ++i;
    } else if (a == "--seed" && ParseU64(v, &n)) {
      o.seed = n;
      have_seed = true;
      ++i;
    } else if (a == "--seconds" && ParseU64(v, &n) && n >= 1 && n <= 3600) {
      o.seconds = static_cast<double>(n);
      have_seconds = true;
      ++i;
    } else if (a == "--trace" && ParseU64(v, &n) && n <= 1) {
      o.trace = n == 1;
      have_trace = true;
      ++i;
    } else if (a == "--source-id") {
      o.source_id = v;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }

  const CpuTicks ticks_before = ReadCpuTicks();
  Result r;
  try {
    if (o.workload == "pipeline") {
      r = RunPipeline(o);
    } else if (o.workload == "screen") {
      r = RunScreen(o);
    } else if (o.workload == "watchdog") {
      r = RunWatchdog(o);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Name("peak_rss_mb", r.metrics["peak_rss_mb"].value, "MiB");

  // Result metrics in declaration order; an end-to-end metric a workload
  // failed to produce is a bug in the benchmark, not a zero.
  std::string metrics;
  const auto emit = [&](const Declared& d, bool required) -> bool {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() && required) {
      std::fprintf(stderr, "perfbench: %s produced no %s\n",
                   o.workload.c_str(), d.name);
      return false;
    }
    const double value = it == r.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", d.name);
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += MetricJson(Metric{d.name, value, d.unit});
    return true;
  };
  if (o.trace) {
    for (const Declared& d : kPerLayer) {
      if (!emit(d, false)) return 1;
    }
  } else {
    for (const Declared& d : kEndToEnd) {
      if (!emit(d, true)) return 1;
    }
  }

  std::string named;
  for (const Metric& m : r.named) {
    if (!named.empty()) named += ", ";
    named += MetricJson(m);
  }
  std::string failures;
  for (const std::string& f : r.failures) {
    if (!failures.empty()) failures += ", ";
    failures += JsonString(f);
  }
  std::string detail = "{\"workload\": " + JsonString(o.workload) +
                       ", \"seed\": " + std::to_string(o.seed) +
                       ", \"trace\": " + (o.trace ? "1" : "0") +
                       ", \"host\": " +
                       HostJson(o, ticks_before, ticks_after) +
                       ", \"named\": {" + named + "}";
  for (const auto& [key, json] : r.info) {
    detail += ", " + JsonString(key) + ": " + json;
  }
  detail += ", \"failures\": [" + failures + "]}";
  std::printf("%s\n", detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.failed == 0 && r.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
