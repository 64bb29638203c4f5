#include "par/pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace cnv::par {
namespace {

TEST(WorkerPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(HardwareJobs(), 1);
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(-3), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
}

TEST(WorkerPoolTest, ParallelEachCoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 3, 8}) {
    WorkerPool pool(jobs);
    ASSERT_EQ(pool.jobs(), jobs);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelEach(n, [&](int worker, std::size_t i) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, jobs);
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossDispatches) {
  WorkerPool pool(3);
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelEach(100, [&](int, std::size_t i) { sum.fetch_add(i); });
    total += sum.load();
  }
  EXPECT_EQ(total, 50u * (99u * 100u / 2));
}

TEST(WorkerPoolTest, SingleJobRunsInlineOnCallingThread) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.ParallelEach(10, [&](int worker, std::size_t) {
    EXPECT_EQ(worker, 0);
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(WorkerPoolTest, BusySecondsTracksEveryWorkerMonotonically) {
  WorkerPool pool(2);
  const std::vector<double> before = pool.BusySeconds();
  ASSERT_EQ(before.size(), 2u);
  pool.ParallelEach(64, [&](int, std::size_t) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 1000; ++i) x += static_cast<std::uint64_t>(i);
  });
  const std::vector<double> after = pool.BusySeconds();
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t w = 0; w < after.size(); ++w) {
    EXPECT_GE(after[w], before[w]);
  }
  const double total = std::accumulate(after.begin(), after.end(), 0.0);
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace cnv::par
