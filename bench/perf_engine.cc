// Engine microbenchmarks (google-benchmark): throughput of the substrates —
// the explicit-state explorer, the random walker, the discrete-event
// simulator kernel, the shim layer and a full simulated attach.
//
// Pass `--bench-json PATH` (stripped before google-benchmark sees the
// command line) to additionally write a machine-readable report of the
// explorer headline numbers — wall seconds and states/second on the
// Peterson and S2 full-space workloads, plus the state-space reduction
// factors. CI consumes this as BENCH_engine.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "mck/explorer.h"
#include "mck/random_walk.h"
#include "obs/export.h"
#include "mck/toy_models.h"
#include "model/combined_model.h"
#include "model/s2_model.h"
#include "obs/harvest.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "solution/shim.h"
#include "stack/testbed.h"

namespace cnv {
namespace {

void BM_ExplorePeterson(benchmark::State& state) {
  mck::toys::PetersonModel m;
  mck::PropertySet<mck::toys::PetersonModel::State> props = {
      {"mutex",
       [](const mck::toys::PetersonModel::State& s) {
         return !mck::toys::PetersonModel::BothCritical(s);
       },
       ""}};
  for (auto _ : state) {
    auto r = mck::Explore(m, props);
    benchmark::DoNotOptimize(r.stats.states_visited);
    state.counters["states"] = static_cast<double>(r.stats.states_visited);
  }
}
BENCHMARK(BM_ExplorePeterson);

void BM_ExploreS2Model(benchmark::State& state) {
  model::S2Model m;
  const auto props = model::S2Model::Properties();
  for (auto _ : state) {
    mck::ExploreOptions opt;
    opt.first_violation_per_property = false;  // full space
    auto r = mck::Explore(m, {}, opt);
    benchmark::DoNotOptimize(r.stats.states_visited);
    state.counters["states"] = static_cast<double>(r.stats.states_visited);
  }
  (void)props;
}
BENCHMARK(BM_ExploreS2Model);

// The screening sweep's largest model: the combined CSFB+LU+PDP model at
// N = 4 UEs, explored fully (arg 0) and with POR + symmetry (arg 1).
void BM_ExploreCombined(benchmark::State& state) {
  model::CombinedModel::Config cfg;
  cfg.ues = 4;
  const model::CombinedModel m(cfg);
  const auto props = m.Properties();
  mck::ExploreOptions opt;
  opt.reduction.por = opt.reduction.symmetry = state.range(0) != 0;
  for (auto _ : state) {
    auto r = mck::Explore(m, props, opt);
    benchmark::DoNotOptimize(r.stats.states_visited);
    state.counters["states"] = static_cast<double>(r.stats.states_visited);
    state.counters["states_per_s"] = benchmark::Counter(
        static_cast<double>(r.stats.states_visited),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_ExploreCombined)->ArgName("por_sym")->Arg(0)->Arg(1);

void BM_RandomWalkS2(benchmark::State& state) {
  model::S2Model m;
  const auto props = model::S2Model::Properties();
  Rng rng(1);
  for (auto _ : state) {
    mck::WalkOptions opt;
    opt.walks = 100;
    opt.first_violation_per_property = false;
    auto r = mck::RandomWalk(m, props, rng, opt);
    benchmark::DoNotOptimize(r.stats.steps_taken);
  }
}
BENCHMARK(BM_RandomWalkS2);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 10'000) sim.ScheduleIn(1, chain);
    };
    sim.ScheduleIn(1, chain);
    sim.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_ShimTransferOverLossyLink(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(3);
    sim::Link ab(sim, rng,
                 {.delay = Millis(30), .loss_prob = 0.2, .reliable = false},
                 "a->b");
    sim::Link ba(sim, rng,
                 {.delay = Millis(30), .loss_prob = 0.2, .reliable = false},
                 "b->a");
    solution::ShimEndpoint a(sim, "A");
    solution::ShimEndpoint b(sim, "B");
    a.SetTransmit([&](const nas::Message& m) { ab.Send(m); });
    b.SetTransmit([&](const nas::Message& m) { ba.Send(m); });
    ab.SetReceiver([&](const nas::Message& m) { b.OnRaw(m); });
    ba.SetReceiver([&](const nas::Message& m) { a.OnRaw(m); });
    int delivered = 0;
    b.SetDeliver([&](const nas::Message&) { ++delivered; });
    for (int i = 0; i < 100; ++i) {
      nas::Message m;
      m.kind = nas::MsgKind::kTauRequest;
      a.Send(m);
    }
    sim.RunAll(Minutes(30));
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ShimTransferOverLossyLink);

void BM_FullAttachOnTestbed(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    stack::TestbedConfig cfg;
    cfg.seed = seed++;
    stack::Testbed tb(cfg);
    tb.ue().PowerOn(nas::System::k4G);
    tb.Run(Seconds(3));
    benchmark::DoNotOptimize(tb.ue().eps_bearer_active());
  }
}
BENCHMARK(BM_FullAttachOnTestbed);

void BM_CsfbCallRoundTrip(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    stack::TestbedConfig cfg;
    cfg.profile = stack::OpI();
    cfg.seed = seed++;
    stack::Testbed tb(cfg);
    tb.ue().PowerOn(nas::System::k4G);
    tb.Run(Seconds(3));
    tb.ue().Dial();
    tb.Run(Seconds(40));
    tb.ue().HangUp();
    tb.Run(Seconds(20));
    benchmark::DoNotOptimize(tb.ue().serving());
  }
}
BENCHMARK(BM_CsfbCallRoundTrip);

// Telemetry-layer cost on a populated run: harvesting every counter and
// latency series of a finished testbed into a registry and serializing the
// JSON snapshot.
void BM_TelemetryHarvestAndExport(benchmark::State& state) {
  stack::TestbedConfig cfg;
  cfg.seed = 7;
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(3));
  tb.ue().Dial();
  tb.Run(Seconds(40));
  tb.ue().HangUp();
  tb.Run(Seconds(20));
  for (auto _ : state) {
    obs::Registry reg;
    obs::HarvestTestbed(reg, tb);
    const std::string json = reg.ToJson(tb.sim().now());
    benchmark::DoNotOptimize(json.data());
  }
}
BENCHMARK(BM_TelemetryHarvestAndExport);

// Span stitching over the full trace of a CSFB call round trip.
void BM_SpanStitching(benchmark::State& state) {
  stack::TestbedConfig cfg;
  cfg.seed = 7;
  stack::Testbed tb(cfg);
  tb.ue().PowerOn(nas::System::k4G);
  tb.Run(Seconds(3));
  tb.ue().Dial();
  tb.Run(Seconds(40));
  tb.ue().HangUp();
  tb.Run(Seconds(20));
  const auto& records = tb.traces().records();
  for (auto _ : state) {
    auto spans = obs::StitchSpans(records);
    benchmark::DoNotOptimize(spans.size());
    state.counters["spans"] = static_cast<double>(spans.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_SpanStitching);

// --- headline report ------------------------------------------------------

// Best-of-reps wall seconds of fn().
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (dt < best) best = dt;
  }
  return best;
}

std::string JsonEntry(const std::string& name, std::uint64_t states,
                      double seconds) {
  return "    \"" + name + "\": {\"states\": " + std::to_string(states) +
         ", \"wall_seconds\": " + std::to_string(seconds) +
         ", \"states_per_second\": " +
         std::to_string(seconds > 0 ? static_cast<double>(states) / seconds
                                    : 0.0) +
         "}";
}

// Explorer headline numbers, written as JSON.
bool WriteBenchJson(const std::string& path) {
  mck::toys::PetersonModel peterson;
  mck::PropertySet<mck::toys::PetersonModel::State> mutex_prop = {
      {"mutex",
       [](const mck::toys::PetersonModel::State& s) {
         return !mck::toys::PetersonModel::BothCritical(s);
       },
       ""}};
  model::S2Model s2;
  mck::ExploreOptions full;
  full.first_violation_per_property = false;

  const auto peterson_ref = mck::Explore(peterson, mutex_prop);
  const double peterson_secs =
      TimeBest(20, [&] { (void)mck::Explore(peterson, mutex_prop); });

  const auto s2_ref = mck::Explore(s2, {}, full);
  const double s2_secs = TimeBest(20, [&] { (void)mck::Explore(s2, {}, full); });

  std::string json = "{\n  \"engine\": {\n";
  json += JsonEntry("explore_peterson", peterson_ref.stats.states_visited,
                    peterson_secs) +
          ",\n";
  json += JsonEntry("explore_s2_full", s2_ref.stats.states_visited, s2_secs);
  json += "\n  },\n";

  // State-space reduction factors: unreduced vs POR+symmetry state counts
  // on the symmetric workloads. The independent-workers product is the
  // clean-room case ((L+1)^K states collapse to K*L+1 schedules); the
  // combined CSFB+LU+PDP multi-UE model is the paper-shaped one. The CI
  // reduction job greps meets_10x_floor — the contract is a >= 10x
  // state-count cut on at least one model, with identical violations
  // (pinned separately by the differential test suite).
  mck::ExploreOptions reduced;
  reduced.reduction.por = true;
  reduced.reduction.symmetry = true;
  const mck::toys::IndepWorkersModel indep;
  const auto indep_full = mck::Explore(indep, {});
  const auto indep_red = mck::Explore(indep, {}, reduced);
  const double indep_red_secs =
      TimeBest(20, [&] { (void)mck::Explore(indep, {}, reduced); });
  model::CombinedModel::Config combined_cfg;
  combined_cfg.ues = 2;
  const model::CombinedModel combined(combined_cfg);
  const auto combined_props = combined.Properties();
  const auto combined_full = mck::Explore(combined, combined_props);
  const auto combined_red = mck::Explore(combined, combined_props, reduced);
  const double combined_red_secs = TimeBest(
      20, [&] { (void)mck::Explore(combined, combined_props, reduced); });
  const double indep_factor =
      indep_red.stats.states_visited > 0
          ? static_cast<double>(indep_full.stats.states_visited) /
                static_cast<double>(indep_red.stats.states_visited)
          : 0.0;
  const double combined_factor =
      combined_red.stats.states_visited > 0
          ? static_cast<double>(combined_full.stats.states_visited) /
                static_cast<double>(combined_red.stats.states_visited)
          : 0.0;
  const bool meets_10x = indep_factor >= 10.0 || combined_factor >= 10.0;
  std::printf(
      "reduction factors: indep_workers %.1fx (%llu -> %llu), combined N=2 "
      "%.1fx (%llu -> %llu)\n",
      indep_factor, (unsigned long long)indep_full.stats.states_visited,
      (unsigned long long)indep_red.stats.states_visited, combined_factor,
      (unsigned long long)combined_full.stats.states_visited,
      (unsigned long long)combined_red.stats.states_visited);
  json += "  \"reduction\": {\n";
  json += JsonEntry("reduced_indep_workers", indep_red.stats.states_visited,
                    indep_red_secs) +
          ",\n";
  json += JsonEntry("reduced_combined_n2", combined_red.stats.states_visited,
                    combined_red_secs) +
          ",\n";
  json += "    \"full_states_indep_workers\": " +
          std::to_string(indep_full.stats.states_visited) +
          ", \"factor_indep_workers\": " + std::to_string(indep_factor) +
          ",\n    \"full_states_combined_n2\": " +
          std::to_string(combined_full.stats.states_visited) +
          ", \"factor_combined_n2\": " + std::to_string(combined_factor) +
          ",\n    \"meets_10x_floor\": " + (meets_10x ? "true" : "false") +
          "\n  }\n}\n";
  return obs::WriteFile(path, json);
}

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  // Strip --bench-json PATH before google-benchmark parses the flags.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--bench-json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_path.empty()) {
    if (!cnv::WriteBenchJson(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
