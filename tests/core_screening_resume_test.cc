// Checkpoint/resume for the screening catalog: completed cells replay from
// their blobs with the shared RNG stream restored to the exact position the
// blob recorded, so a resumed report — including the random-walk
// counterexamples of cells that run *after* the resume point — is identical
// to an uninterrupted run. Damaged blobs are discarded and re-run; a fired
// cancel token stops between cells with the completed prefix intact.
#include "core/screening.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/manifest.h"
#include "gtest/gtest.h"

namespace cnv::core {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / "screening_resume" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void FlipPayloadByte(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(in), {});
  in.close();
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Few walks keep the suite fast while still exercising the shared RNG
// stream that makes resume ordering matter.
ScreeningOptions SmallOptions() {
  ScreeningOptions opt;
  opt.random_walks = 5;
  return opt;
}

// Every deterministic field of the report; wall-clock times are excluded
// because re-run cells legitimately time differently than the baseline.
void ExpectSameDeterministicReport(const ScreeningReport& a,
                                   const ScreeningReport& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell #" + std::to_string(i) + " (" + b.cells[i].cell + ")");
    EXPECT_EQ(a.cells[i].cell, b.cells[i].cell);
    EXPECT_EQ(a.cells[i].findings, b.cells[i].findings);
    EXPECT_EQ(a.cells[i].violated_properties, b.cells[i].violated_properties);
    EXPECT_EQ(a.cells[i].counterexamples, b.cells[i].counterexamples);
    EXPECT_EQ(mck::DeterministicView(a.cells[i].stats),
              mck::DeterministicView(b.cells[i].stats));
  }
  EXPECT_EQ(a.findings_found, b.findings_found);
  EXPECT_EQ(a.total_states, b.total_states);
  EXPECT_EQ(a.total_transitions, b.total_transitions);
}

class ScreeningResumeTest : public testing::Test {
 protected:
  ScreeningReport Baseline(const std::string& dir) {
    ScreeningOptions opt = SmallOptions();
    opt.checkpoint_dir = dir;
    const ScreeningReport report = ScreeningRunner(opt).RunAll();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.exec.cells_run, report.cells.size());
    EXPECT_EQ(report.exec.checkpoints_written, report.cells.size());
    return report;
  }

  void ClearCells(const std::string& dir,
                  const std::vector<std::size_t>& cleared) {
    const ckpt::ManifestStore store(
        dir, ScreeningRunner(SmallOptions()).ConfigDigest());
    ckpt::Manifest manifest;
    ASSERT_EQ(store.LoadManifest(&manifest), ckpt::LoadStatus::kOk);
    for (const std::size_t i : cleared) {
      ASSERT_LT(i, manifest.cells.size());
      manifest.cells[i] = ckpt::CellRecord{};
    }
    ASSERT_TRUE(store.SaveManifest(manifest));
  }

  ScreeningReport Resume(const std::string& dir) {
    ScreeningOptions opt = SmallOptions();
    opt.checkpoint_dir = dir;
    opt.resume = true;
    return ScreeningRunner(opt).RunAll();
  }
};

TEST_F(ScreeningResumeTest, MidCatalogCrashResumesIdentical) {
  const std::string dir = FreshDir("mid-catalog");
  const ScreeningReport baseline = Baseline(dir);
  ASSERT_GE(baseline.cells.size(), 6u);
  // Lose two mid-catalog cells: the re-run of cell 2 must leave the RNG
  // stream exactly where the baseline did, or every later random-walk
  // counterexample would diverge.
  ClearCells(dir, {2, 5});

  const ScreeningReport resumed = Resume(dir);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.cells_resumed, baseline.cells.size() - 2);
  EXPECT_EQ(resumed.exec.cells_run, 2u);
  ExpectSameDeterministicReport(resumed, baseline);
}

TEST_F(ScreeningResumeTest, LostTailResumesIdentical) {
  const std::string dir = FreshDir("lost-tail");
  const ScreeningReport baseline = Baseline(dir);
  // A real crash loses the tail of the catalog, not arbitrary cells.
  std::vector<std::size_t> tail;
  for (std::size_t i = baseline.cells.size() / 2; i < baseline.cells.size();
       ++i) {
    tail.push_back(i);
  }
  ClearCells(dir, tail);

  const ScreeningReport resumed = Resume(dir);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.cells_run, tail.size());
  ExpectSameDeterministicReport(resumed, baseline);
}

TEST_F(ScreeningResumeTest, FullyResumedReportIsByteIdentical) {
  const std::string dir = FreshDir("full-replay");
  const ScreeningReport baseline = Baseline(dir);
  const ScreeningReport resumed = Resume(dir);
  EXPECT_EQ(resumed.exec.cells_resumed, baseline.cells.size());
  EXPECT_EQ(resumed.exec.cells_run, 0u);
  // Replayed cells carry their stored wall-clock stats, so even the
  // formatted report — throughput lines included — matches byte for byte.
  EXPECT_EQ(ScreeningRunner::Format(resumed),
            ScreeningRunner::Format(baseline));
}

TEST_F(ScreeningResumeTest, CorruptedCellBlobIsDiscardedAndReRun) {
  const std::string dir = FreshDir("corrupt-cell");
  const ScreeningReport baseline = Baseline(dir);
  const ckpt::ManifestStore store(
      dir, ScreeningRunner(SmallOptions()).ConfigDigest());
  FlipPayloadByte(store.CellPath(1));

  const ScreeningReport resumed = Resume(dir);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.exec.corrupt_cells_discarded, 1u);
  EXPECT_EQ(resumed.exec.cells_run, 1u);
  EXPECT_EQ(resumed.exec.cells_resumed, baseline.cells.size() - 1);
  ExpectSameDeterministicReport(resumed, baseline);
}

TEST_F(ScreeningResumeTest, CancelStopsBetweenCellsWithPrefixIntact) {
  const std::string dir = FreshDir("cancel");
  ckpt::CancelToken cancel;
  cancel.Cancel();
  ScreeningOptions opt = SmallOptions();
  opt.checkpoint_dir = dir;
  opt.cancel = &cancel;
  const ScreeningReport report = ScreeningRunner(opt).RunAll();
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.exec.interrupted);
  EXPECT_TRUE(report.cells.empty());

  // The interrupted directory resumes to a complete, identical report.
  const ScreeningReport resumed = Resume(dir);
  EXPECT_TRUE(resumed.complete);
  const ScreeningReport plain = ScreeningRunner(SmallOptions()).RunAll();
  ExpectSameDeterministicReport(resumed, plain);
}

TEST(ScreeningConfigDigestTest, IgnoresExecutionKnobsButNotTheCatalog) {
  const std::uint64_t digest = ScreeningRunner(SmallOptions()).ConfigDigest();

  ScreeningOptions execution = SmallOptions();
  execution.checkpoint_dir = "/somewhere/else";
  execution.resume = true;
  execution.retry.max_retries = 2;
  EXPECT_EQ(ScreeningRunner(execution).ConfigDigest(), digest);

  ScreeningOptions more_walks = SmallOptions();
  more_walks.random_walks += 1;
  EXPECT_NE(ScreeningRunner(more_walks).ConfigDigest(), digest);

  ScreeningOptions other_seed = SmallOptions();
  other_seed.seed += 1;
  EXPECT_NE(ScreeningRunner(other_seed).ConfigDigest(), digest);

  ScreeningOptions solutions = SmallOptions();
  solutions.with_solutions = true;
  EXPECT_NE(ScreeningRunner(solutions).ConfigDigest(), digest);
}

TEST(ScreeningRetryTest, RetriedCellsDoNotSkewTheRngStream) {
  // Force one retry per cell with a fake clock; because every attempt
  // restores the cell's starting RNG state, the report must still match a
  // run with no retries at all.
  ScreeningOptions opt = SmallOptions();
  opt.retry.cell_timeout_ms = 1;
  opt.retry.max_retries = 1;
  auto now = std::make_shared<std::int64_t>(0);
  opt.retry.wall_ms_for_test = [now] { return *now += 10; };
  opt.retry.sleep_ms_for_test = [](std::int64_t) {};
  const ScreeningReport retried = ScreeningRunner(opt).RunAll();
  EXPECT_EQ(retried.exec.retries, retried.cells.size());
  EXPECT_EQ(retried.exec.watchdog_hits, 2 * retried.cells.size());

  const ScreeningReport plain = ScreeningRunner(SmallOptions()).RunAll();
  ExpectSameDeterministicReport(retried, plain);
}

}  // namespace
}  // namespace cnv::core
