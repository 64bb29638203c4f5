// Parallel-engine scaling benchmark: serial Explore vs ParallelExplore at
// 1/2/4/8 workers, plus campaign-sweep scaling. Every parallel run is
// verified against the serial stats before its time is reported — a speedup
// with wrong results would be meaningless.
//
// Beyond the screening models (which are small — the paper's scenario cells
// exhaust in milliseconds), the harness includes a parameterized product-
// space model (k bounded counters, (cap+1)^k states) so the sharded table
// is exercised at the state counts where parallelism pays.
//
// Usage:  ./perf_parallel [--bench-json PATH] [--quick]
//   --bench-json PATH   also write a machine-readable report (default
//                       BENCH_parallel.json in the working directory)
//   --quick             shrink the product-space model for smoke runs
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "mck/hash.h"
#include "mck/parallel_explorer.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "obs/export.h"

namespace cnv {
namespace {

// k independent bounded counters; any counter may be incremented while below
// cap. Reachable states: (cap + 1)^k — a dial for state-space size.
struct ProductCounterModel {
  int counters = 6;
  int cap = 7;

  struct State {
    std::array<std::int8_t, 8> v{};
    bool operator==(const State&) const = default;
  };
  struct Action {
    int counter = 0;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const {
    out.clear();
    for (int i = 0; i < counters; ++i) {
      if (s.v[static_cast<std::size_t>(i)] < cap) out.push_back({i});
    }
  }
  State apply(const State& s, const Action& a) const {
    State next = s;
    ++next.v[static_cast<std::size_t>(a.counter)];
    return next;
  }
  std::string describe(const Action& a) const {
    return "inc c" + std::to_string(a.counter);
  }
};

std::size_t HashValue(const ProductCounterModel::State& s) {
  mck::Hasher h;
  for (const auto x : s.v) h.Mix(static_cast<std::uint64_t>(x));
  return h.Digest();
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps wall time of fn() in seconds.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    const double dt = Now() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

struct ExploreRow {
  std::string name;
  std::uint64_t states = 0;
  double serial_seconds = 0;
  std::vector<std::pair<int, double>> parallel_seconds;  // (jobs, secs)
};

bool g_mismatch = false;

template <typename M>
ExploreRow BenchExplore(const std::string& name, const M& m,
                        const mck::PropertySet<typename M::State>& props,
                        mck::ExploreOptions base, int reps) {
  ExploreRow row;
  row.name = name;

  const auto serial_ref = mck::Explore(m, props, base);
  row.states = serial_ref.stats.states_visited;
  row.serial_seconds =
      TimeBest(reps, [&] { (void)mck::Explore(m, props, base); });

  for (const int jobs : {1, 2, 4, 8}) {
    mck::ParallelExploreOptions opt;
    opt.base = base;
    opt.jobs = jobs;
    const auto par = mck::ParallelExplore(m, props, opt);
    if (par.stats.states_visited != serial_ref.stats.states_visited ||
        par.stats.transitions != serial_ref.stats.transitions ||
        par.violations.size() != serial_ref.violations.size()) {
      std::fprintf(stderr,
                   "FATAL: %s at jobs=%d diverged from serial "
                   "(states %llu vs %llu)\n",
                   name.c_str(), jobs,
                   (unsigned long long)par.stats.states_visited,
                   (unsigned long long)serial_ref.stats.states_visited);
      g_mismatch = true;
    }
    const double secs = TimeBest(
        reps, [&] { (void)mck::ParallelExplore(m, props, opt); });
    row.parallel_seconds.emplace_back(jobs, secs);
  }
  return row;
}

void PrintRow(const ExploreRow& row) {
  std::printf("%-34s %9llu states  serial %8.4fs (%.0f st/s)\n",
              row.name.c_str(), (unsigned long long)row.states,
              row.serial_seconds,
              row.serial_seconds > 0
                  ? static_cast<double>(row.states) / row.serial_seconds
                  : 0.0);
  for (const auto& [jobs, secs] : row.parallel_seconds) {
    std::printf("    jobs=%d  %8.4fs  speedup vs serial: %.2fx\n", jobs, secs,
                secs > 0 ? row.serial_seconds / secs : 0.0);
  }
}

std::string JsonRow(const ExploreRow& row) {
  std::string out = "    {\"name\": \"" + row.name + "\", \"states\": " +
                    std::to_string(row.states) + ", \"serial_seconds\": " +
                    std::to_string(row.serial_seconds) + ", \"parallel\": [";
  for (std::size_t i = 0; i < row.parallel_seconds.size(); ++i) {
    const auto& [jobs, secs] = row.parallel_seconds[i];
    if (i > 0) out += ", ";
    out += "{\"jobs\": " + std::to_string(jobs) + ", \"seconds\": " +
           std::to_string(secs) + ", \"speedup\": " +
           std::to_string(secs > 0 ? row.serial_seconds / secs : 0.0) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  std::string json_path = "BENCH_parallel.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--bench-json PATH] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("parallel engine scaling (hardware jobs: %d)\n\n",
              par::HardwareJobs());
  std::vector<ExploreRow> rows;

  {
    mck::ExploreOptions full;
    full.first_violation_per_property = false;
    rows.push_back(BenchExplore("S2 model / full space", model::S2Model{},
                                model::S2Model::Properties(), full, 5));
    rows.push_back(BenchExplore("S4 model / both domains", model::S4Model{},
                                model::S4Model::Properties(), full, 5));
    model::S3Model s3;
    rows.push_back(
        BenchExplore("S3 model / cell reselection", s3, s3.Properties(), full, 5));
  }
  {
    ProductCounterModel big;
    big.counters = quick ? 4 : 6;
    big.cap = 7;  // (cap+1)^counters reachable states
    mck::PropertySet<ProductCounterModel::State> props{
        {"sum_bound",
         [](const ProductCounterModel::State& s) {
           int sum = 0;
           for (const auto x : s.v) sum += x;
           return sum <= 8 * 8;  // holds: full exploration
         },
         ""}};
    rows.push_back(BenchExplore("product counters (synthetic)", big, props,
                                mck::ExploreOptions{}, quick ? 3 : 2));
  }

  for (const auto& row : rows) PrintRow(row);

  // Campaign sweep scaling: the same sweep at parallelism 1/2/4.
  std::printf("\ncampaign sweep scaling\n");
  fault::CampaignConfig cfg;
  cfg.seeds = {1, 2, 3, 4};
  cfg.plans = {fault::plans::S2AttachDisruption(),
               fault::plans::MmeCrashRestart()};
  std::vector<std::pair<int, double>> campaign_rows;
  double campaign_serial = 0;
  for (const int jobs : {1, 2, 4}) {
    fault::CampaignConfig c = cfg;
    c.parallelism = jobs;
    const double secs =
        TimeBest(3, [&] { (void)fault::CampaignRunner(c).Run(); });
    if (jobs == 1) campaign_serial = secs;
    campaign_rows.emplace_back(jobs, secs);
    std::printf("    jobs=%d  %8.4fs  speedup vs serial: %.2fx\n", jobs, secs,
                secs > 0 ? campaign_serial / secs : 0.0);
  }

  std::string json = "{\n  \"hardware_jobs\": " +
                     std::to_string(par::HardwareJobs()) +
                     ",\n  \"explore\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ",\n";
    json += JsonRow(rows[i]);
  }
  json += "\n  ],\n  \"campaign\": [";
  for (std::size_t i = 0; i < campaign_rows.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"jobs\": " + std::to_string(campaign_rows[i].first) +
            ", \"seconds\": " + std::to_string(campaign_rows[i].second) +
            ", \"speedup\": " +
            std::to_string(campaign_rows[i].second > 0
                               ? campaign_serial / campaign_rows[i].second
                               : 0.0) +
            "}";
  }
  json += "]\n}\n";
  if (!obs::WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return g_mismatch ? 1 : 0;
}
