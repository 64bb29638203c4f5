// Unit and two-thread stress tests for the bounded lock-free SPSC ring that
// hands records from the ingest thread to the monitor thread. The stress
// tests are the ones CI runs under TSan.
#include "rtv/ring.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cnv::rtv {
namespace {

TEST(RingCapacityForTest, RoundsUpToPowersOfTwo) {
  EXPECT_EQ(RingCapacityFor(0), 2u);  // minimum capacity is 2
  EXPECT_EQ(RingCapacityFor(1), 2u);
  EXPECT_EQ(RingCapacityFor(2), 2u);
  EXPECT_EQ(RingCapacityFor(3), 4u);
  EXPECT_EQ(RingCapacityFor(1000), 1024u);
  EXPECT_EQ(RingCapacityFor(1024), 1024u);
  EXPECT_EQ(RingCapacityFor(1025), 2048u);
}

TEST(RingCapacityForTest, LargestPowerOfTwoAndAboveIt) {
  constexpr std::size_t kLargest = std::size_t{1} << 63;
  EXPECT_EQ(RingCapacityFor(kLargest - 1), kLargest);
  EXPECT_EQ(RingCapacityFor(kLargest), kLargest);
  EXPECT_THROW(RingCapacityFor(kLargest + 1), std::length_error);
  EXPECT_THROW(RingCapacityFor(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(SpscRingTest, PushPopSingleThreaded) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.EmptyApprox());
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.SizeApprox(), 2u);
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.TryPush(99));  // freed slot is reusable
  for (const int want : {1, 2, 3, 99}) {
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, want);
  }
}

TEST(SpscRingTest, ClaimedSlotsStayHiddenUntilPublish) {
  SpscRing<int> ring(4);
  for (int v : {1, 2}) {
    int* slot = ring.Claim();
    ASSERT_NE(slot, nullptr);
    *slot = v;
  }
  EXPECT_EQ(ring.Front(), nullptr);  // claimed, not yet published
  EXPECT_EQ(ring.SizeApprox(), 0u);
  ring.Publish();
  EXPECT_EQ(ring.SizeApprox(), 2u);
  ASSERT_NE(ring.Claim(), nullptr);
  ASSERT_NE(ring.Claim(), nullptr);
  EXPECT_EQ(ring.Claim(), nullptr);  // claimed slots count as occupied
  int v = 0;
  EXPECT_FALSE(ring.TryPush(5));
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, PoppedSlotsStayWithTheConsumerUntilRelease) {
  SpscRing<int> ring(2);
  EXPECT_EQ(ring.Front(), nullptr);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  int* first = ring.Front();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 1);
  ring.Pop();
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 2);
  ring.Pop();
  EXPECT_EQ(ring.Front(), nullptr);
  EXPECT_FALSE(ring.TryPush(3));  // popped but not released
  EXPECT_EQ(*first, 1);           // still the consumer's to read
  ring.Release();
  // The producer gets the slot back with what the consumer left in it.
  int* slot = ring.Claim();
  ASSERT_EQ(slot, first);
  EXPECT_EQ(*slot, 1);
  *slot = 3;
  ring.Publish();
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 3);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<int> ring(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
    int v = -1;
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
}

TEST(SpscRingTest, MoveOnlyElements) {
  SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(ring.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// --- drop-newest at exact capacity ------------------------------------------
//
// The gateway's kDropNewest policy discards the incoming record whenever
// TryPush reports full, so the ring's full-detection must be exact at every
// tail position: one slot too eager and records are dropped while space
// remains; one slot too lax and the producer overwrites the slot the
// consumer is reading. These tests pin the boundary as the cursors cross
// multiples of the power-of-two capacity.

TEST(SpscRingTest, DropNewestKeepsOldestAndCountsExactlyAcrossWraps) {
  SpscRing<int> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);

  int next = 0;
  std::uint64_t dropped = 0;
  // 100 fill/drain cycles march the cursors across the 2^n boundary 100
  // times. Each cycle offers 13 records to the empty ring: exactly 8 fit,
  // exactly 5 drop, and the survivors are the OLDEST 8 — drop-newest never
  // evicts a record that already made it in.
  for (int cycle = 0; cycle < 100; ++cycle) {
    const int first = next;
    for (int k = 0; k < 13; ++k) {
      if (!ring.TryPush(int{next})) ++dropped;
      ++next;
    }
    EXPECT_EQ(ring.SizeApprox(), 8u);
    for (int k = 0; k < 8; ++k) {
      int v = -1;
      ASSERT_TRUE(ring.TryPop(&v));
      EXPECT_EQ(v, first + k) << "cycle " << cycle;
    }
    int v = -1;
    EXPECT_FALSE(ring.TryPop(&v));
  }
  EXPECT_EQ(dropped, 100u * 5u);
}

TEST(SpscRingTest, FullDetectionIsExactWhenProducerLapsConsumer) {
  // Lockstep at full occupancy: the producer stays exactly one lap ahead of
  // the consumer, so `tail - head` sits at the capacity boundary on every
  // iteration. An off-by-one in the full check would surface as either a
  // rejected push into a free slot or a corrupted FIFO order.
  SpscRing<int> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  int next = 0;
  for (; next < 4; ++next) ASSERT_TRUE(ring.TryPush(int{next}));

  for (int i = 0; i < 1000; ++i) {
    int rejected = next;
    EXPECT_FALSE(ring.TryPush(std::move(rejected)));  // full: drop-newest
    int v = -1;
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, next - 4);
    ASSERT_TRUE(ring.TryPush(int{next}));  // freed slot, same iteration
    ++next;
  }
  for (int k = 0; k < 4; ++k) {
    int v = -1;
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, next - 4 + k);
  }
}

// The concurrent tests: one producer, one consumer, every value must come
// out exactly once and in order. Run under TSan in the CI `rtv` job.
TEST(SpscRingTest, ConcurrentOrderedTransfer) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> got;
  got.reserve(kCount);

  std::thread consumer([&] {
    std::uint64_t v = 0;
    while (got.size() < kCount) {
      if (ring.TryPop(&v)) {
        got.push_back(v);
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.TryPush(std::uint64_t{i})) std::this_thread::yield();
  }
  consumer.join();

  ASSERT_EQ(got.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i], i) << "out-of-order at " << i;
  }
}

TEST(SpscRingTest, ConcurrentDropNewestConservesEveryRecord) {
  // Under drop-newest with a racing consumer, the exact drop count is
  // schedule-dependent — but conservation is not: every offered value is
  // either delivered exactly once, in order, or counted dropped.
  constexpr std::uint64_t kCount = 200'000;
  constexpr std::uint64_t kEnd = ~0ull;  // sentinel, pushed with retry
  SpscRing<std::uint64_t> ring(16);
  std::vector<std::uint64_t> got;
  std::uint64_t dropped = 0;

  std::thread consumer([&] {
    std::uint64_t v = 0;
    for (;;) {
      if (!ring.TryPop(&v)) {
        std::this_thread::yield();
        continue;
      }
      if (v == kEnd) return;
      got.push_back(v);
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    if (!ring.TryPush(std::uint64_t{i})) ++dropped;  // drop-newest: no retry
  }
  while (!ring.TryPush(std::uint64_t{kEnd})) std::this_thread::yield();
  consumer.join();

  EXPECT_EQ(got.size() + dropped, kCount);
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1], got[i]) << "reordered at " << i;
  }
}

TEST(SpscRingTest, ConcurrentRunsInPlaceKeepOrder) {
  // The gateway's pattern: the producer claims slots in place and publishes
  // every few elements; the consumer reads in place and releases every few
  // pops. Run lengths that do not divide the capacity make the publish and
  // release points wander across the wrap.
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::vector<std::uint64_t> got;
  got.reserve(kCount);

  std::thread consumer([&] {
    std::size_t popped = 0;
    while (got.size() < kCount) {
      const std::uint64_t* v = ring.Front();
      if (v == nullptr) {
        ring.Release();
        std::this_thread::yield();
        continue;
      }
      got.push_back(*v);
      ring.Pop();
      if (++popped % 5 == 0) ring.Release();
    }
    ring.Release();
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::uint64_t* slot = ring.Claim();
    if (slot == nullptr) {
      ring.Publish();
      while ((slot = ring.Claim()) == nullptr) std::this_thread::yield();
    }
    *slot = i;
    if (i % 7 == 6) ring.Publish();
  }
  ring.Publish();
  consumer.join();

  ASSERT_EQ(got.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i], i) << "out-of-order at " << i;
  }
}

TEST(SpscRingTest, ConcurrentStringsSurviveIntact) {
  constexpr int kCount = 50'000;
  SpscRing<std::string> ring(64);
  std::uint64_t sum = 0;

  std::thread consumer([&] {
    std::string v;
    for (int i = 0; i < kCount;) {
      if (ring.TryPop(&v)) {
        sum += std::stoull(v);
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kCount; ++i) {
    std::string s = std::to_string(i);
    while (!ring.TryPush(std::move(s))) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(sum, static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2);
}

}  // namespace
}  // namespace cnv::rtv
