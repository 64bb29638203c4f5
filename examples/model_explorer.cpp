// Model-exploration workbench: the checker-side tooling on one model.
// Default --model s3: exhausts the S3 screening model, prints the MM_OK
// counterexample, runs the recoverability analysis (is the stuck state
// permanent?), and writes a Graphviz rendering of the reachable state graph
// with stuck states highlighted (render with:
// dot -Tsvg s3_model.dot -o s3_model.svg). --model combined: exhausts the
// combined CSFB+LU+PDP model over N symmetric UEs and reports every
// property verdict with its counterexample.
//
// Build and run:  ./model_explorer [output.dot] [--model s3|combined]
//                                  [--ues N] [--jobs N]
//                                  [--por] [--symmetry] [--spill-dir DIR]
//                                  [--checkpoint-dir DIR]
//                                  [--checkpoint-every N] [--resume]
//   --jobs N  explore on N workers (default 0 = hardware concurrency,
//             1 = serial). Stats and counterexamples are identical at any N.
//   --por / --symmetry
//             enable partial-order and/or symmetry reduction. Sound for the
//             checked properties: the same violations are found, from a
//             smaller state count (reported as the reduction factor).
//   --spill-dir DIR
//             spill frontier candidate runs to checksummed files under DIR
//             between the expand and insert phases instead of holding them
//             in RAM; a damaged/missing run is recomputed deterministically.
//   --checkpoint-dir DIR
//             write checksummed exploration snapshots (intern table, arena,
//             frontier, stats) under DIR at wave boundaries; with --resume,
//             exploration restarts from the newest good snapshot and the
//             result — violations, traces, stats — is byte-identical to an
//             uninterrupted run, at any --jobs.
//   --checkpoint-every N
//             snapshot only after >= N newly discovered states since the
//             last snapshot (default 0 = every wave boundary)
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "ckpt/explore_ckpt.h"
#include "mck/dot.h"
#include "mck/parallel_explorer.h"
#include "mck/reachability.h"
#include "model/combined_model.h"
#include "model/s3_model.h"
#include "util/args.h"

using namespace cnv;

namespace {

// Explores `m` on the pool, optionally checkpointed under `checkpoint_dir`.
// The config digest covers the model tag and the reduction flags — a
// snapshot of a reduced run must not resume an unreduced one (the visited
// sets differ) — but not --jobs: a snapshot written serially resumes on any
// worker count.
template <typename M>
mck::ParallelExploreResult<M> RunExplore(
    const M& m, const mck::PropertySet<typename M::State>& props,
    const mck::ParallelExploreOptions& opt_explore, const std::string& tag,
    const std::string& checkpoint_dir, std::uint64_t checkpoint_every,
    bool resume) {
  std::unique_ptr<ckpt::ExploreCheckpointer<M>> checkpointer;
  mck::ExploreSnapshot<M> snap;
  const mck::SnapshotHooks<M>* hooks = nullptr;
  if (!checkpoint_dir.empty()) {
    ckpt::DigestBuilder digest;
    digest.Add(std::string_view("model_explorer/"))
        .Add(std::string_view(tag))
        .Add(opt_explore.base.reduction.por)
        .Add(opt_explore.base.reduction.symmetry);
    checkpointer = std::make_unique<ckpt::ExploreCheckpointer<M>>(
        checkpoint_dir, tag, digest.Finish(), checkpoint_every);
    bool resumed = false;
    if (resume) {
      const auto rs = checkpointer->TryLoad(&snap);
      resumed = rs.loaded;
      std::fprintf(stderr, "resume: primary=%s fallback=%s -> %s\n",
                   ckpt::ToString(rs.primary).c_str(),
                   ckpt::ToString(rs.fallback).c_str(),
                   rs.loaded
                       ? (rs.fell_back ? "resumed from last good snapshot"
                                       : "resumed")
                       : "starting fresh");
    }
    hooks = checkpointer->hooks(resumed ? &snap : nullptr);
  }
  const auto result = mck::ParallelExplore(m, props, opt_explore, nullptr,
                                           hooks);
  if (checkpointer != nullptr) {
    std::fprintf(stderr, "checkpoints written: %llu\n",
                 static_cast<unsigned long long>(
                     checkpointer->snapshots_written()));
  }
  return result;
}

template <typename M>
void PrintStats(const mck::ParallelExploreResult<M>& result) {
  std::printf(
      "explored %llu states, %llu transitions (%d job(s), %llu waves)\n",
      (unsigned long long)result.stats.states_visited,
      (unsigned long long)result.stats.transitions, result.par.jobs,
      (unsigned long long)result.par.waves);
  std::printf(
      "wall: %.3fs  throughput: %.0f states/s  frontier peak: %llu  "
      "hash occupancy: %.2f  utilization: %.2f\n",
      result.stats.elapsed_wall_seconds, result.stats.StatesPerSecond(),
      (unsigned long long)result.stats.frontier_peak,
      result.stats.hash_occupancy, result.par.utilization);
  if (result.stats.represented_states > result.stats.states_visited) {
    std::printf(
        "reduction: %llu representatives stand for %llu concrete states "
        "(factor %.1fx); %llu ample expansions\n",
        (unsigned long long)result.stats.states_visited,
        (unsigned long long)result.stats.represented_states,
        static_cast<double>(result.stats.represented_states) /
            static_cast<double>(result.stats.states_visited),
        (unsigned long long)result.stats.ample_states);
  } else if (result.stats.ample_states > 0) {
    std::printf("reduction: %llu ample (partial-order) expansions\n",
                (unsigned long long)result.stats.ample_states);
  }
  if (result.par.spill_runs > 0) {
    std::printf("spill: %llu frontier runs written, %llu recovered\n",
                (unsigned long long)result.par.spill_runs,
                (unsigned long long)result.par.spill_recovered);
  }
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: model_explorer [output.dot] [--model s3|combined] [--ues N]\n"
      "                      [--jobs N] [--por] [--symmetry]\n"
      "                      [--spill-dir DIR] [--checkpoint-dir DIR]\n"
      "                      [--checkpoint-every N] [--resume]");
  std::string model_name = "s3";
  parser.StrValue("--model", &model_name);
  int ues = 2;
  parser.IntValue("--ues", &ues, 2);
  int jobs = 0;
  parser.IntValue("--jobs", &jobs, 0);
  const bool por = parser.Flag("--por");
  const bool symmetry = parser.Flag("--symmetry");
  std::string spill_dir;
  parser.StrValue("--spill-dir", &spill_dir);
  std::string checkpoint_dir;
  parser.StrValue("--checkpoint-dir", &checkpoint_dir);
  std::uint64_t checkpoint_every = 0;
  parser.U64Value("--checkpoint-every", &checkpoint_every);
  const bool resume = parser.Flag("--resume");
  const auto positional = parser.Finish(1);
  const std::string out_path =
      positional.empty() ? "s3_model.dot" : positional[0];
  if (resume && checkpoint_dir.empty()) {
    parser.Fail("--resume requires --checkpoint-dir");
  }
  if (model_name != "s3" && model_name != "combined") {
    parser.Fail("--model must be s3 or combined");
  }
  if (ues > static_cast<int>(model::CombinedModel::kMaxUes)) {
    parser.Fail("--ues must be at most " +
                std::to_string(model::CombinedModel::kMaxUes));
  }

  mck::ParallelExploreOptions opt_explore;
  opt_explore.jobs = jobs;
  opt_explore.base.reduction.por = por;
  opt_explore.base.reduction.symmetry = symmetry;
  opt_explore.spill_dir = spill_dir;

  if (model_name == "combined") {
    // Combined CSFB + LU + PDP interaction model over N symmetric UEs
    // sharing one MSC: all three cross-protocol failures live in one
    // reachable graph. This is where the reductions earn their keep — UEs
    // are interchangeable, so --symmetry folds UE permutations into one
    // representative, and --por commutes their independent steps.
    model::CombinedModel::Config cfg;
    cfg.ues = ues;
    const model::CombinedModel m(cfg);
    const auto props = m.Properties();
    const auto result = RunExplore(m, props, opt_explore,
                                   "combined_u" + std::to_string(ues),
                                   checkpoint_dir, checkpoint_every, resume);
    PrintStats(result);
    for (const auto& p : props) {
      if (const auto* v = result.FindViolation(p.name)) {
        std::printf("\n%s VIOLATED\n%s\n", p.name.c_str(),
                    mck::FormatTrace(m, *v).c_str());
      } else {
        std::printf("%s holds\n", p.name.c_str());
      }
    }
    return 0;
  }

  model::S3Model m;  // cell-reselection policy: the S3 configuration

  // 1. Exhaustive screening on the worker pool, optionally checkpointed.
  const auto result = RunExplore(m, m.Properties(), opt_explore, "s3",
                                 checkpoint_dir, checkpoint_every, resume);
  PrintStats(result);
  if (const auto* v = result.FindViolation(model::kMmOk)) {
    std::printf("\n%s\n", mck::FormatTrace(m, *v).c_str());
  } else {
    std::printf("MM_OK holds\n");
  }

  // 2. Recoverability: the stuck state is session-bounded, not permanent.
  const auto rec = mck::CheckRecoverable<model::S3Model>(
      m, [&m](const model::S3Model::State& s) { return m.StuckIn3g(s); },
      [](const model::S3Model::State& s) {
        return s.serving == model::S3Model::Sys::k4G;
      });
  std::printf("stuck state recoverable on some path: %s\n",
              rec.holds ? "yes (ending the data session frees the device)"
                        : "NO - permanent dead end");

  // 3. Graphviz export with the stuck states highlighted.
  mck::DotOptions<model::S3Model::State> opt;
  opt.label = [](const model::S3Model::State& s) {
    std::string l = s.serving == model::S3Model::Sys::k4G ? "4G" : "3G";
    l += " " + model::ToString(s.rrc3g);
    l += s.call == model::S3Model::Call::kActive   ? " call"
         : s.call == model::S3Model::Call::kEnded ? " ended"
                                                  : "";
    if (s.data != model::DataRate::kNone) {
      l += " +" + model::ToString(s.data);
    }
    return l;
  };
  opt.highlight = [&m](const model::S3Model::State& s) {
    return m.StuckIn3g(s);
  };
  const std::string dot = mck::ExportDot(m, opt);
  std::ofstream f(out_path);
  f << dot;
  std::printf("wrote %zu-byte state graph to %s (%s)\n", dot.size(),
              out_path.c_str(), "stuck states filled red");
  return 0;
}
