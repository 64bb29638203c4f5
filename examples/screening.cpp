// Screening-phase driver: runs the §3.2 scenario-cell catalog (S1-S4
// screening models x the bounded usage-option enumeration) and prints the
// per-cell exploration statistics, violated properties and classified
// findings.
//
// Usage:  ./screening [--walks W] [--seed S] [--solutions]
//                     [--checkpoint-dir DIR] [--resume]
//                     [--backend thread|process]
//                     [--heartbeat-ms T] [--quarantine-after K] [--reduce]
//   Each cell is explored on one thread (mck::Explore). Findings, violated
//   properties and counterexamples are deterministic; only the wall-clock
//   lines differ between runs.
//   --walks W    random walks per cell on top of the exhaustive pass
//                (default 200)
//   --seed S     RNG seed for the random walks (default 1)
//   --solutions  screen the §8 remedies instead of the standard behaviour
//                (expected outcome: zero findings)
//   --checkpoint-dir DIR
//                persist each completed catalog cell (plus the RNG stream
//                position) under DIR; with --resume, completed cells replay
//                from their blobs and the report is byte-identical to an
//                uninterrupted run. SIGINT/SIGTERM drain gracefully between
//                cells (exit status 75).
//   --backend thread|process
//                run the catalog in-process (default) or in a supervised
//                worker process (failure isolation: a crashing or hanging
//                cell is retried in a fresh worker and quarantined after
//                --quarantine-after strikes). The catalog is a chained
//                grid — cells always run in order — and the report is
//                byte-identical either way.
//   --heartbeat-ms T / --quarantine-after K
//                process-backend liveness deadline and poisoned-cell strike
//                budget (defaults 2000 ms, 3 strikes)
//   --reduce     explore each cell with partial-order + symmetry reduction
//                enabled. The S1-S4 slices carry trivial reduction specs,
//                so the findings and counterexamples are byte-identical to
//                an unreduced sweep (pinned by the `reduction` CI job).
#include <cstdio>

#include "ckpt/manifest.h"
#include "core/screening.h"
#include "util/args.h"

using namespace cnv;

int main(int argc, char** argv) {
  args::ArgParser parser(
      argc, argv,
      "usage: screening [--walks W] [--seed S] [--solutions]\n"
      "                 [--checkpoint-dir DIR] [--resume]\n"
      "                 [--backend thread|process]\n"
      "                 [--heartbeat-ms T] [--quarantine-after K] [--reduce]");
  core::ScreeningOptions opt;
  opt.with_solutions = parser.Flag("--solutions");
  if (parser.Flag("--reduce")) {
    opt.reduction.por = true;
    opt.reduction.symmetry = true;
  }
  parser.U64Value("--walks", &opt.random_walks);
  parser.U64Value("--seed", &opt.seed);
  parser.StrValue("--checkpoint-dir", &opt.checkpoint_dir);
  opt.resume = parser.Flag("--resume");
  std::string backend_spec = "thread";
  parser.StrValue("--backend", &backend_spec);
  parser.I64Value("--heartbeat-ms", &opt.heartbeat_ms, 2000);
  parser.IntValue("--quarantine-after", &opt.quarantine_after, 3);
  parser.Finish(0);
  if (opt.resume && opt.checkpoint_dir.empty()) {
    parser.Fail("--resume requires --checkpoint-dir");
  }
  if (!dist::ParseBackend(backend_spec, &opt.backend)) {
    parser.Fail("--backend must be 'thread' or 'process', got '" +
                backend_spec + "'");
  }

  ckpt::CancelToken cancel;
  ckpt::InstallSignalDrain(&cancel);
  opt.cancel = &cancel;

  const auto report = core::ScreeningRunner(opt).RunAll();
  ckpt::InstallSignalDrain(nullptr);

  // Execution accounting to stderr only: stdout must stay byte-identical
  // between a resumed and an uninterrupted screening run.
  if (!opt.checkpoint_dir.empty()) {
    std::fprintf(stderr, "execution: %s\n", report.exec.ToString().c_str());
  }
  for (const auto& q : report.quarantined) {
    std::fprintf(stderr, "QUARANTINED cell %llu (%s) after %u strike(s): %s\n",
                 static_cast<unsigned long long>(q.index), q.name.c_str(),
                 static_cast<unsigned>(q.strikes), q.last_error.c_str());
  }
  if (!report.quarantined.empty()) return 1;
  if (!report.complete) {
    std::fprintf(stderr,
                 "screening interrupted: %llu/%llu cell(s) done; resume "
                 "with --checkpoint-dir %s --resume\n",
                 static_cast<unsigned long long>(report.exec.cells_resumed +
                                                 report.exec.cells_run),
                 static_cast<unsigned long long>(report.exec.cells_total),
                 opt.checkpoint_dir.c_str());
    return ckpt::kInterruptedExitCode;
  }

  std::printf("%s", core::ScreeningRunner::Format(report).c_str());
  return 0;
}
