// Campaign-sweep scaling benchmark: the same fault-campaign sweep at
// parallelism 1/2/4, reported as wall seconds and speedup over serial.
// Parallelism in this code base lives across cells (campaign runs, grid
// cells); each model exploration is serial.
//
// Usage:  ./perf_parallel [--bench-json PATH]
//   --bench-json PATH   also write a machine-readable report (default
//                       BENCH_parallel.json in the working directory)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.h"
#include "obs/export.h"
#include "par/pool.h"

namespace cnv {
namespace {

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

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  std::string json_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--bench-json PATH]\n", argv[0]);
      return 2;
    }
  }

  // Campaign sweep scaling: the same sweep at parallelism 1/2/4.
  std::printf("campaign sweep scaling (hardware jobs: %d)\n",
              par::HardwareJobs());
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
                     ",\n  \"campaign\": [";
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
  return 0;
}
