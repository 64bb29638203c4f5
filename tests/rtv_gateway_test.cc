// End-to-end tests of the runtime-verification gateway: byte-stream ingest
// through the SPSC hand-off to the online monitors, the determinism
// contract (same bytes => byte-identical alert log at any chunking and ring
// size), backpressure accounting, config validation, the live testbed tap,
// and the metrics/snapshot surface.
#include "rtv/gateway.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rtv/monitors.h"
#include "stack/testbed.h"
#include "trace/qxdm.h"

namespace cnv::rtv {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(CNV_GOLDEN_DIR) + "/" + name + ".log";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden: " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string AllGoldens() {
  std::string all;
  for (const char* name :
       {"s1_context_loss_opi", "s2_lost_attach_complete_opi",
        "s3_stuck_in_3g_opii", "s4_hol_blocking_opi",
        "s5_call_data_coupling_opi", "s6_lu_failure_detach_opi",
        "congestion_attach_storm_opi"}) {
    all += ReadGolden(name);
  }
  return all;
}

std::string RunChunked(const std::string& bytes, std::size_t chunk,
                       GatewayConfig config = {}) {
  Gateway gw(config);
  gw.Start();
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    gw.Feed(0, std::string_view(bytes).substr(off, chunk));
  }
  gw.Finish();
  return gw.AlertLog();
}

TEST(GatewayTest, ThreadedEndToEndRaisesTheExpectedAlerts) {
  const std::string log = ReadGolden("s1_context_loss_opi");
  Gateway gw;
  int callbacks = 0;
  gw.set_alert_callback([&](const Alert& a) {
    EXPECT_EQ(a.kind, AlertKind::kS1);
    ++callbacks;
  });
  gw.Start();
  gw.Feed(0, log);
  gw.Finish();
  ASSERT_EQ(gw.alerts().size(), 1u);
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kS1);
  EXPECT_EQ(callbacks, 1);
  const auto stats = gw.stats();
  EXPECT_EQ(stats.records_in, trace::ParseLog(log).size());
  EXPECT_EQ(stats.records_processed, stats.records_in);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.alerts, 1u);
  EXPECT_EQ(stats.streams, 1u);
}

TEST(GatewayTest, AlertLogIsByteIdenticalAtAnyChunking) {
  const std::string bytes = AllGoldens();
  const std::string whole = RunChunked(bytes, bytes.size());
  EXPECT_FALSE(whole.empty());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    EXPECT_EQ(RunChunked(bytes, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(GatewayTest, InlineModeMatchesThreadedMode) {
  const std::string bytes = AllGoldens();
  GatewayConfig inline_cfg;
  inline_cfg.threaded = false;
  EXPECT_EQ(RunChunked(bytes, 333, inline_cfg), RunChunked(bytes, 333));
}

TEST(GatewayTest, StreamsAreMonitoredIndependently) {
  // Interleave two goldens chunk-by-chunk on two streams: each stream
  // raises exactly its own finding, tagged with its stream id.
  const std::string a = ReadGolden("s1_context_loss_opi");
  const std::string b = ReadGolden("s2_lost_attach_complete_opi");
  Gateway gw;
  gw.Start();
  constexpr std::size_t kChunk = 64;
  for (std::size_t off = 0; off < a.size() || off < b.size();
       off += kChunk) {
    if (off < a.size()) {
      gw.Feed(1, std::string_view(a).substr(off, kChunk));
    }
    if (off < b.size()) {
      gw.Feed(2, std::string_view(b).substr(off, kChunk));
    }
  }
  gw.Finish();
  ASSERT_EQ(gw.alerts().size(), 2u);
  for (const auto& alert : gw.alerts()) {
    if (alert.stream == 1) {
      EXPECT_EQ(alert.kind, AlertKind::kS1);
    } else {
      EXPECT_EQ(alert.stream, 2u);
      EXPECT_EQ(alert.kind, AlertKind::kS2);
    }
  }
  EXPECT_EQ(gw.stats().streams, 2u);
}

TEST(GatewayTest, DropNewestCountsWhatItSheds) {
  // A tiny ring in drop mode with a consumer that cannot keep up: the
  // gateway must stay bounded and account for every dropped record.
  GatewayConfig config;
  config.ring_capacity = 4;
  config.backpressure = Backpressure::kDropNewest;
  Gateway gw(config);
  gw.Start();
  const std::string bytes = AllGoldens();
  for (std::size_t off = 0; off < bytes.size(); off += 4096) {
    gw.Feed(0, std::string_view(bytes).substr(off, 4096));
  }
  gw.Finish();
  const auto stats = gw.stats();
  EXPECT_EQ(stats.records_processed + stats.records_dropped,
            stats.records_in);
}

// `bytes` cut into `chunk`-byte pieces, or into whole lines when chunk == 0.
std::vector<std::string_view> Pieces(std::string_view bytes,
                                     std::size_t chunk) {
  std::vector<std::string_view> out;
  for (std::size_t off = 0; off < bytes.size();) {
    const std::size_t len =
        chunk != 0 ? chunk : bytes.find('\n', off) + 1 - off;
    out.push_back(bytes.substr(off, len));
    off += out.back().size();
  }
  return out;
}

TEST(GatewayTest, ThreadedMatchesInlineAcrossBatchBoundaries) {
  // Three streams of the whole catalog, fed piece by piece in turn, at
  // ring sizes below, at and around one publication batch of records.
  const std::string bytes = AllGoldens();
  constexpr std::uint32_t kStreams = 3;
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{0}, std::size_t{64 * 1024}}) {
    const std::vector<std::string_view> pieces = Pieces(bytes, chunk);
    const auto run = [&](GatewayConfig config) {
      Gateway gw(config);
      gw.Start();
      for (const std::string_view piece : pieces) {
        for (std::uint32_t s = 0; s < kStreams; ++s) gw.Feed(s, piece);
      }
      gw.Finish();
      return std::pair{gw.AlertLog(), gw.stats()};
    };
    GatewayConfig inline_cfg;
    inline_cfg.threaded = false;
    const auto [want, want_stats] = run(inline_cfg);
    ASSERT_EQ(want_stats.alerts % kStreams, 0u);
    ASSERT_GT(want_stats.alerts, 0u);
    for (const std::size_t ring :
         {std::size_t{2}, std::size_t{31}, std::size_t{32}, std::size_t{33},
          GatewayConfig{}.ring_capacity}) {
      GatewayConfig cfg;
      cfg.ring_capacity = ring;
      const auto [log, stats] = run(cfg);
      EXPECT_EQ(log, want) << "chunk=" << chunk << " ring=" << ring;
      EXPECT_EQ(stats.records_in, want_stats.records_in);
      EXPECT_EQ(stats.records_processed, stats.records_in)
          << "chunk=" << chunk << " ring=" << ring;
      EXPECT_EQ(stats.records_dropped, 0u);
    }
  }
}

// Runs a kDropNewest gateway whose consumer is held inside its first alert
// callback until `feed` has returned. `feed` gets the gateway and a flag
// that turns true once the consumer is held.
struct HeldRun {
  GatewayStats stats;
  bool released_by_producer = false;  // false: the hold timed out
};

template <typename FeedFn>
HeldRun RunWithConsumerHeld(std::size_t ring_capacity, FeedFn feed) {
  GatewayConfig config;
  config.ring_capacity = ring_capacity;
  config.backpressure = Backpressure::kDropNewest;
  Gateway gw(config);
  std::atomic<bool> held{false};
  std::atomic<bool> fed{false};
  HeldRun out;
  gw.set_alert_callback([&](const Alert&) {
    if (held.load(std::memory_order_relaxed)) return;
    held.store(true, std::memory_order_release);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!fed.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    out.released_by_producer = fed.load(std::memory_order_acquire);
  });
  gw.Start();
  feed(gw, static_cast<const std::atomic<bool>&>(held));
  fed.store(true, std::memory_order_release);
  gw.Finish();
  out.stats = gw.stats();
  return out;
}

bool WaitFor(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  return flag.load(std::memory_order_acquire);
}

TEST(GatewayTest, DropNewestWithRingBelowOneBatchAccountsExactly) {
  // A ring of two records, smaller than one publication batch. The S1
  // golden goes in a line at a time, with pauses, until the consumer is
  // held at an alert (a ring this small can drop a line the signature
  // needs, so the golden repeats). Then 20 catalogs go in while it is
  // held, in 4 KiB pieces or one line per Feed: the producer must never
  // wait, the ring must take at most its one free slot of them, and every
  // record is either processed or counted as dropped.
  const std::string prefix = ReadGolden("s1_context_loss_opi");
  const std::uint64_t prefix_records = trace::ParseLog(prefix).size();
  std::string bytes;
  for (int rep = 0; rep < 20; ++rep) bytes += AllGoldens();
  constexpr std::size_t kRing = 2;
  for (const std::size_t chunk : {std::size_t{4096}, std::size_t{0}}) {
    std::uint64_t fed_before = 0;
    const HeldRun run = RunWithConsumerHeld(
        kRing, [&](Gateway& gw, const std::atomic<bool>& held) {
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!held.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < give_up) {
            for (const std::string_view line : Pieces(prefix, 0)) {
              gw.Feed(0, line);
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            fed_before += prefix_records;
          }
          ASSERT_TRUE(WaitFor(held)) << "the consumer was never held";
          for (const std::string_view piece : Pieces(bytes, chunk)) {
            gw.Feed(0, piece);
          }
        });
    EXPECT_TRUE(run.released_by_producer)
        << "the producer waited for the consumer, chunk=" << chunk;
    EXPECT_EQ(run.stats.records_processed + run.stats.records_dropped,
              run.stats.records_in);
    EXPECT_GT(run.stats.records_dropped, 0u);
    // The held record keeps its slot; one other record can get in.
    EXPECT_LE(run.stats.records_processed, fed_before + kRing - 1)
        << "chunk=" << chunk;
  }
}

TEST(GatewayTest, DropNewestRingHoldsItsCapacityInRecordsAtOneLinePerFeed) {
  // The ring's capacity counts records however few each Feed carries. The
  // consumer is held at the S1 alert of a short prefix; then the producer
  // feeds the catalog one line per Feed. The ring must take records until
  // it holds its capacity, minus at most the prefix's own records, before
  // it sheds anything.
  constexpr std::size_t kRing = 256;
  const std::string prefix = ReadGolden("s1_context_loss_opi");
  const std::uint64_t prefix_records = trace::ParseLog(prefix).size();
  ASSERT_LT(prefix_records, kRing);
  std::string bulk;
  for (int rep = 0; rep < 4; ++rep) bulk += AllGoldens();
  const HeldRun run = RunWithConsumerHeld(
      kRing, [&](Gateway& gw, const std::atomic<bool>& held) {
        for (const std::string_view line : Pieces(prefix, 0)) {
          gw.Feed(0, line);
        }
        ASSERT_TRUE(WaitFor(held)) << "the prefix raised no alert";
        for (const std::string_view line : Pieces(bulk, 0)) {
          gw.Feed(0, line);
        }
      });
  EXPECT_TRUE(run.released_by_producer);
  EXPECT_EQ(run.stats.records_processed + run.stats.records_dropped,
            run.stats.records_in);
  EXPECT_GT(run.stats.records_dropped, 0u);
  // The prefix cannot fill the ring, so all of it is processed; what the
  // bulk got in is what the ring held while the consumer was held.
  const std::uint64_t taken = run.stats.records_processed - prefix_records;
  EXPECT_LE(taken, kRing);
  EXPECT_GE(taken, kRing - prefix_records);
}

TEST(GatewayTest, ConstructorRejectsOutOfRangeConfig) {
  const auto with_ring = [](std::size_t records) {
    GatewayConfig config;
    config.ring_capacity = records;
    return config;
  };
  for (const std::size_t bad :
       {std::size_t{0}, std::size_t{1}, kMaxRingRecords + 1,
        std::size_t{1} << 62}) {
    EXPECT_THROW(Gateway{with_ring(bad)}, std::invalid_argument) << bad;
  }
  GatewayConfig no_line;
  no_line.max_line_bytes = 0;
  EXPECT_THROW(Gateway{no_line}, std::invalid_argument);
  EXPECT_NO_THROW(Gateway{with_ring(2)});
  // kMaxRingRecords is in range too, but its ring allocates ~1.7 GiB of
  // record slots up front, too much to construct in a unit test.
  EXPECT_NO_THROW(Gateway{with_ring(GatewayConfig{}.ring_capacity)});
}

TEST(GatewayTest, LiveTapMatchesOfflineReplay) {
  // Tap a running testbed into the gateway (the rtv::FeedRecord glue) and
  // replay the same collected records offline: identical alert logs, and
  // every collected record crossed the byte-stream boundary.
  stack::TestbedConfig cfg;
  cfg.seed = 7;
  stack::Testbed tb(cfg);
  Gateway gw;
  gw.Start();
  tb.TapTraces([&gw](const trace::TraceRecord& r) { FeedRecord(gw, 0, r); });
  tb.storm().MassAttach(Millis(10), 50, Millis(2));
  tb.sim().ScheduleAt(Millis(100),
                      [&tb] { tb.ue().PowerOn(nas::System::k4G); });
  tb.Run(Seconds(5));
  tb.TapTraces(nullptr);
  gw.Finish();

  // The offline twin replays the same byte-stream representation the tap
  // produced (FormatRecord truncates to milliseconds), not the raw
  // collector records.
  FindingMonitors offline;
  std::vector<Alert> offline_alerts;
  std::uint64_t ordinal = 0;
  for (const auto& r :
       trace::ParseLog(trace::FormatLog(tb.traces().records()))) {
    offline.Step(r, ordinal++, &offline_alerts);
  }
  EXPECT_EQ(gw.AlertLog(), FormatAlertLog(offline_alerts));
  EXPECT_EQ(gw.stats().records_in, tb.traces().records().size());
  // The mass-attach storm must have tripped the overload monitor live.
  ASSERT_FALSE(gw.alerts().empty());
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kOverload);
}

TEST(GatewayTest, RegistryExportsCountersGaugesAndLatency) {
  Gateway gw;
  gw.Start();
  gw.Feed(0, AllGoldens());
  gw.Finish();
  const std::string json = gw.registry().ToJson(gw.last_record_time());
  for (const char* name :
       {"rtv.bytes_in", "rtv.lines_in", "rtv.records_in",
        "rtv.records_processed", "rtv.alerts", "rtv.alerts.S1",
        "rtv.streams", "rtv.record_latency_us"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(gw.stats().lines_skipped, 0u);
}

TEST(GatewayTest, PeriodicSnapshotWritesJson) {
  const std::string path = ::testing::TempDir() + "rtv_snapshot_test.json";
  std::remove(path.c_str());
  GatewayConfig config;
  config.snapshot_every = 50;
  config.snapshot_path = path;
  Gateway gw(config);
  gw.Start();
  gw.Feed(0, AllGoldens());
  gw.Finish();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "no snapshot written to " << path;
  const std::string json(std::istreambuf_iterator<char>(in), {});
  EXPECT_NE(json.find("rtv.records_processed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GatewayTest, MalformedLinesAreCountedNotFatal) {
  Gateway gw;
  gw.Start();
  gw.Feed(0, "complete garbage\n");
  gw.Feed(0, ReadGolden("s4_hol_blocking_opi"));
  gw.Feed(0, "more garbage with no newline");
  gw.Finish();
  const auto stats = gw.stats();
  EXPECT_EQ(stats.lines_skipped, 2u);
  ASSERT_EQ(gw.alerts().size(), 1u);
  EXPECT_EQ(gw.alerts()[0].kind, AlertKind::kS4);
}

}  // namespace
}  // namespace cnv::rtv
