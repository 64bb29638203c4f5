// pipeline: the paper's one-cell screen -> validate pipeline as a
// dist::CellGrid driven by dist::RunGrid (thread backend, closed loop).
// Each cell is finding (S1-S4) x carrier (OP-I/OP-II) x {defect, remedied}
// x replay seed, and runs every stage from the benchmark's own code:
//
//   mck::Explore (configured + baseline model) -> conf::CompileS* ->
//   carrier gate -> conf::Replay -> conf::AbstractTrace ->
//   conf::CheckRefinement -> rtv::FindingMonitors::Step over the replayed
//   records -> core::ConformanceRunner::Classify
//
// Gate: every staged verdict must equal core::ConformanceRunner::CrossCheck
// for the same cell (computed at set-up).
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "conf/abstract.h"
#include "conf/compile.h"
#include "conf/script.h"
#include "core/conformance.h"
#include "dist/coordinator.h"
#include "mck/explorer.h"
#include "rtv/monitors.h"
#include "stack/carrier.h"

namespace perfbench {
namespace {

using cnv::core::FindingId;

struct Cell {
  FindingId id = FindingId::kS1;
  const cnv::stack::CarrierProfile* profile = nullptr;  // OP-I or OP-II
  bool remedied = false;
  std::uint64_t seed = 1;
};

struct Staged {
  cnv::conf::Verdict verdict = cnv::conf::Verdict::kAgreedAbsent;
  std::uint64_t states = 0;
  std::uint64_t records = 0;
};

cnv::stack::SolutionConfig Remedies(bool on) {
  cnv::stack::SolutionConfig s;
  s.shim_layer = s.mm_decoupled = s.domain_decoupled = s.csfb_tag =
      s.reactivate_bearer = s.mme_lu_recovery = on;
  return s;
}

template <typename M>
using CompileFn = cnv::conf::CompileResult (*)(const M&,
                                               const cnv::mck::Violation<M>&);

// The stages of one cross-check, each call wrapped in its layer's span.
template <typename M>
Staged Stage(const M& configured, const M& baseline, const char* property,
             CompileFn<M> compile, cnv::conf::Scenario scenario,
             const cnv::stack::CarrierProfile& profile,
             const cnv::conf::ReplayOptions& ropt, std::uint64_t run) {
  namespace conf = cnv::conf;
  Staged out;
  bool model_violation = false;
  cnv::mck::ExploreResult<M> base;
  {
    trace::Span span("mck.explore", run);
    const auto cfg = cnv::mck::Explore(configured, configured.Properties());
    model_violation = !cfg.Holds(property);
    out.states += cfg.stats.states_visited;
  }
  {
    trace::Span span("mck.explore", run);
    base = cnv::mck::Explore(baseline, baseline.Properties());
    out.states += base.stats.states_visited;
  }
  const auto* violation = base.FindViolation(property);
  if (violation == nullptr) {
    out.verdict = conf::Verdict::kBadCounterexample;
    return out;
  }
  conf::CompileResult compiled;
  {
    trace::Span span("conf.compile", run);
    compiled = compile(baseline, *violation);
  }
  if (!compiled.ok) {
    out.verdict = conf::Verdict::kBadCounterexample;
    return out;
  }
  if (model_violation && compiled.script.required_policy &&
      *compiled.script.required_policy != profile.csfb_return_policy) {
    out.verdict = conf::Verdict::kCarrierMismatch;
    return out;
  }
  conf::ReplayOutcome replay;
  {
    trace::Span span("conf.replay", run);
    replay = conf::Replay(compiled.script, profile, ropt);
  }
  out.records = replay.records.size();
  std::vector<conf::AbstractEvent> abstracted;
  {
    trace::Span span("conf.abstract", run);
    abstracted = conf::AbstractTrace(replay.records);
  }
  conf::RefinementCheck refinement;
  {
    trace::Span span("conf.refine", run);
    refinement = conf::CheckRefinement(abstracted, compiled.script.expected);
  }
  {
    trace::Span span("rtv.monitor", run);
    cnv::rtv::FindingMonitors monitors;
    std::vector<cnv::rtv::Alert> alerts;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      monitors.Step(replay.records[i], i, &alerts);
    }
  }
  {
    trace::Span span("core.classify", run);
    out.verdict = cnv::core::ConformanceRunner::Classify(
        model_violation, replay.HasProbe(scenario), refinement.refines);
  }
  // Each layer's span also covers releasing what it produced, so the cell
  // span's self time is only the benchmark's own glue.
  {
    trace::Span span("conf.replay", run);
    replay = {};
  }
  {
    trace::Span span("conf.compile", run);
    compiled = {};
  }
  {
    trace::Span span("mck.explore", run);
    base = {};
  }
  return out;
}

// Mirrors ConformanceRunner::CrossCheck's per-finding plans, with the §8
// remedies on both sides when the cell is remedied.
Staged StageCell(const Cell& c, std::uint64_t run) {
  namespace model = cnv::model;
  namespace conf = cnv::conf;
  const cnv::stack::CarrierProfile& profile = *c.profile;
  conf::ReplayOptions ropt;
  ropt.seed = c.seed;
  ropt.solutions = Remedies(c.remedied);
  switch (c.id) {
    case FindingId::kS1: {
      model::S1Model::Config cfg;
      cfg.fix_keep_context = cfg.fix_reactivate_bearer = c.remedied;
      return Stage(model::S1Model(cfg), model::S1Model(),
                   model::kPacketServiceOk, &conf::CompileS1,
                   conf::Scenario::kS1, profile, ropt, run);
    }
    case FindingId::kS2: {
      model::S2Model::Config cfg;
      cfg.reliable_shim = c.remedied;
      return Stage(model::S2Model(cfg), model::S2Model(),
                   model::kPacketServiceOk, &conf::CompileS2,
                   conf::Scenario::kS2, profile, ropt, run);
    }
    case FindingId::kS3: {
      model::S3Model::Config cfg;
      cfg.policy = profile.csfb_return_policy;
      cfg.fix_csfb_tag = c.remedied;
      model::S3Model::Config base;
      base.policy = model::SwitchPolicy::kCellReselection;
      return Stage(model::S3Model(cfg), model::S3Model(base), model::kMmOk,
                   &conf::CompileS3, conf::Scenario::kS3, profile, ropt, run);
    }
    default: {
      model::S4Model::Config cfg;
      cfg.decoupled = c.remedied;
      return Stage(model::S4Model(cfg), model::S4Model(),
                   model::kCallServiceOk, &conf::CompileS4,
                   conf::Scenario::kS4, profile, ropt, run);
    }
  }
}

cnv::conf::Verdict Oracle(const Cell& c) {
  cnv::core::ConformanceOptions opt;
  opt.seed = c.seed;
  opt.solutions = Remedies(c.remedied);
  opt.model_solutions = c.remedied;
  return cnv::core::ConformanceRunner(opt)
      .CrossCheck(c.id, *c.profile)
      .verdict;
}

// Every cell writes only its own slots; RunGrid's barrier publishes them.
struct PipelineGrid : cnv::dist::CellGrid {
  explicit PipelineGrid(const std::vector<Cell>& c)
      : cells(c),
        verdict(c.size()),
        latency_us(c.size()),
        coverage(c.size()),
        states(c.size()),
        records(c.size()) {}

  std::size_t size() const override { return cells.size(); }

  cnv::dist::CellOutcome RunCell(std::size_t i, std::string_view) override {
    const std::uint64_t t0 = NowNs();
    trace::Span span("pipeline.cell", i);
    const Staged s = StageCell(cells[i], i);
    span.End();
    latency_us[i] = static_cast<double>(NowNs() - t0) * 1e-3;
    verdict[i] = s.verdict;
    states[i] = s.states;
    records[i] = s.records;
    coverage[i] = span.duration_ns() > 0
                      ? static_cast<double>(span.child_ns()) /
                            static_cast<double>(span.duration_ns())
                      : 0.0;
    cnv::dist::CellOutcome out;
    out.payload.assign(1, static_cast<char>(s.verdict));
    return out;
  }

  const std::vector<Cell>& cells;
  std::vector<cnv::conf::Verdict> verdict;
  std::vector<double> latency_us;
  std::vector<double> coverage;  // child-span share of the cell span
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> records;
};

}  // namespace

Result RunPipeline(const Options& o) {
  Result r;
  const int workers = Workers();
  // 512 cells make a pass of about 18 ms at 4 workers, so the pass's fixed
  // cost (starting and joining the workers, waiting for the last cell),
  // which swings with the host, is a smaller share of it: about 16 % of the
  // wall against 21-26 % with 128 cells.
  const int seeds_per_plan = o.tiny ? 1 : 32;

  const cnv::stack::CarrierProfile profiles[2] = {cnv::stack::OpI(),
                                                  cnv::stack::OpII()};
  // Set-up: the cells drawn from the seed and their CrossCheck oracles.
  struct Inputs {
    std::vector<Cell> cells;
    std::vector<cnv::conf::Verdict> oracle;
  };
  const auto make_inputs = [&] {
    Inputs in;
    std::uint64_t state = o.seed;
    for (int k = 0; k < seeds_per_plan; ++k) {
      for (const FindingId id : {FindingId::kS1, FindingId::kS2,
                                 FindingId::kS3, FindingId::kS4}) {
        for (const bool op2 : {false, true}) {
          for (const bool remedied : {false, true}) {
            in.cells.push_back(
                Cell{id, &profiles[op2], remedied, SplitMix64(state)});
          }
        }
      }
    }
    for (const Cell& c : in.cells) in.oracle.push_back(Oracle(c));
    return in;
  };
  SetupTimer setup;
  const Inputs inputs = setup.Time(make_inputs);
  const std::vector<Cell>& cells = inputs.cells;
  const std::vector<cnv::conf::Verdict>& oracle = inputs.oracle;

  PipelineGrid grid(cells);
  cnv::dist::DistOptions dopt;
  dopt.workers = workers;

  // Latency quantiles per block of 4096 cells.
  BlockQuantiles latency(4096);
  std::vector<double> untraced_pass_s, traced_pass_s, coverage;
  std::uint64_t traced_cells = 0, states = 0, records = 0;
  const double deadline = setup.PassClock() + o.seconds;
  for (int pass = 0;
       pass < (o.trace ? 4 : 1) || setup.PassClock() < deadline; ++pass) {
    // A traced run alternates untraced and traced passes; the difference
    // of their medians is the tracer's own overhead.
    const bool traced = o.trace && pass % 2 == 1;
    setup.Between(make_inputs);
    trace::Enable(traced);
    cnv::dist::GridResult res;
    double wall = 0;
    OnFreshThread([&] {
      const double t0 = NowSeconds();
      res = cnv::dist::RunGrid(grid, dopt);
      wall = NowSeconds() - t0;
    });
    trace::Enable(false);
    (traced ? traced_pass_s : untraced_pass_s).push_back(wall);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool ok = res.Done(i) && grid.verdict[i] == oracle[i];
      r.Check(ok, [&] {
        return "cell " + std::to_string(i) + " verdict " +
               cnv::conf::ToString(grid.verdict[i]) + ", CrossCheck " +
               cnv::conf::ToString(oracle[i]);
      });
      if (!traced) latency.Add(grid.latency_us[i]);
    }
    if (traced) {
      traced_cells += cells.size();
      coverage.insert(coverage.end(), grid.coverage.begin(),
                      grid.coverage.end());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        states += grid.states[i];
        records += grid.records[i];
      }
    }
  }

  // Pass figures are medians over passes.
  const double pass_s = Median(untraced_pass_s);
  const double per_s = static_cast<double>(cells.size()) / pass_s;
  const double p50 = latency.P50(), p90 = latency.P90();
  r.Set("throughput_per_s", per_s, "1/s");
  r.Set("latency_p50_us", p50, "us");
  r.Set("latency_p90_us", p90, "us");
  r.Set("setup_s", setup.Seconds(), "s");
  r.Name("setup_s", setup.Seconds(), "s");
  r.Name("verdicts_per_s", per_s, "1/s");
  r.Name("grid_pass_s", pass_s, "s");
  r.Name("verdict_p50_us", p50, "us");
  r.Name("verdict_p90_us", p90, "us");
  r.Name("verdict_p99_us", latency.P99(), "us");
  r.Info("samples", "{\"verdicts\": " + std::to_string(latency.count()) +
                        ", \"passes\": " +
                        std::to_string(untraced_pass_s.size()) +
                        ", \"setups\": " + std::to_string(setup.samples()) +
                        "}");
  r.Info("shape", "{\"cells_per_pass\": " + std::to_string(cells.size()) +
                      ", \"workers\": " + std::to_string(workers) +
                      ", \"loop\": \"closed\"}");

  if (o.trace && traced_cells > 0) {
    const auto totals = trace::Totals();
    const double n = static_cast<double>(traced_cells);
    const auto per_cell_us = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s / n * 1e6;
    };
    for (const char* name :
         {"mck.explore", "conf.compile", "conf.replay", "conf.abstract",
          "conf.refine", "rtv.monitor", "core.classify"}) {
      r.Set(std::string(name) + "_us", per_cell_us(name), "us");
    }
    r.Set("mck.states_per_cell", static_cast<double>(states) / n, "count");
    r.Set("trace.records_per_cell", static_cast<double>(records) / n, "count");
    const double traced_wall = Sum(traced_pass_s);
    const double cell_s = per_cell_us("pipeline.cell") * n * 1e-6;
    r.Set("dist.busy_share", cell_s / (traced_wall * workers), "ratio");
    r.Set("dist.overhead_us_per_cell",
          (traced_wall * workers - cell_s) / n * 1e6, "us");
    r.Set("bench.cell_coverage_min", Quantile(coverage, 0), "ratio");
    const auto covered = std::count_if(coverage.begin(), coverage.end(),
                                       [](double c) { return c >= 0.95; });
    r.Info("cell_coverage",
           "{\"p01\": " + std::to_string(Quantile(coverage, 0.01)) +
               ", \"p50\": " + std::to_string(Quantile(coverage, 0.5)) +
               ", \"share_at_least_95\": " +
               std::to_string(static_cast<double>(covered) /
                              static_cast<double>(coverage.size())) +
               ", \"cells\": " + std::to_string(coverage.size()) + "}");
    FinishTrace(o, untraced_pass_s, traced_pass_s, r);
  }
  return r;
}

}  // namespace perfbench
