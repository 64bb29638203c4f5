// The online runtime-verification gateway: streaming trace ingest, a
// bounded SPSC ring hand-off, per-stream incremental abstraction and the
// S1-S6 online monitors, with live counters/gauges/histograms in an
// obs::Registry and an optional periodic JSON snapshot.
//
//   bytes --Feed()--> StreamParser (ingest thread)
//         --SpscRing<Item>--> abstraction + FindingMonitors (monitor thread)
//         --> Alert callback / alert log + metrics
//
// Threading contract: all Feed/CloseStream/Finish calls must come from one
// thread (the single producer); the gateway owns the single consumer. With
// backpressure kBlock the alert log is a pure function of the byte stream
// and the per-stream interleaving — byte-identical at any chunking. With
// kDropNewest, records arriving into a full ring are counted and dropped
// (bounded memory under bursty ingest), which trades that determinism away;
// the drop counter says exactly how much was lost.
//
// Memory is bounded by: ring capacity x record size + per-stream parser
// carry-over (<= max_line_bytes each) + per-stream monitor state (a few
// flags), so a million idle UE streams cost only their map entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "rtv/alert.h"
#include "rtv/monitors.h"
#include "rtv/ring.h"
#include "rtv/stream.h"

namespace cnv::rtv {

enum class Backpressure : std::uint8_t {
  kBlock,       // producer waits for ring space (lossless, deterministic)
  kDropNewest,  // count-and-drop the arriving record when the ring is full
};

// Largest GatewayConfig::ring_capacity the gateway accepts, in records.
inline constexpr std::size_t kMaxRingRecords = std::size_t{1} << 24;

struct GatewayConfig {
  // Records the hand-off ring holds, however many each Feed carries, in
  // [2, kMaxRingRecords]; rounded up to a power of two and allocated up
  // front (about 104 bytes a record).
  std::size_t ring_capacity = 1 << 14;
  Backpressure backpressure = Backpressure::kBlock;
  // false = single-threaded: Feed() runs the monitors inline (no ring, no
  // thread). Useful for offline analysis and as the bench baseline.
  bool threaded = true;
  std::size_t max_line_bytes = 64 * 1024;  // per-stream carry-over cap
  // Per-record monitor latency is wall-clock and therefore sampled, not
  // exhaustive: every Nth record is timed from parse to monitor exit.
  std::size_t latency_sample_every = 256;
  // When nonzero, every N processed records the registry is serialized to
  // `snapshot_path` (atomic rename), so an operator can poll live state.
  std::size_t snapshot_every = 0;
  std::string snapshot_path;
};

struct GatewayStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t lines_in = 0;
  std::uint64_t records_in = 0;        // parsed on the ingest side
  std::uint64_t lines_skipped = 0;     // malformed lines
  std::uint64_t lines_overlong = 0;    // discarded at the line-length cap
  std::uint64_t records_dropped = 0;   // kDropNewest rejections
  std::uint64_t records_processed = 0; // stepped through the monitors
  std::uint64_t alerts = 0;
  std::uint64_t snapshots = 0;
  std::size_t queue_peak = 0;  // sampled, in records
  std::size_t streams = 0;
};

class Gateway {
 public:
  // Invoked on the monitor thread the moment an alert fires.
  using AlertCallback = std::function<void(const Alert&)>;

  // The producer publishes its ring cursor after this many records and at
  // the end of every Feed/CloseStream, so a live tap's records never wait
  // for a later chunk; the consumer hands slots back as often.
  static constexpr std::size_t kBatchRecords = 32;

  // Throws std::invalid_argument for a ring_capacity outside
  // [2, kMaxRingRecords] or a zero max_line_bytes.
  explicit Gateway(GatewayConfig config = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Optional; set before Start().
  void set_alert_callback(AlertCallback cb) { on_alert_ = std::move(cb); }

  // Spawns the monitor thread (no-op when !threaded). Idempotent.
  void Start();

  // Feeds one chunk of QXDM-format bytes for `stream`. Single producer.
  void Feed(std::uint32_t stream, std::string_view bytes);

  // Flushes a trailing unterminated line of `stream`.
  void CloseStream(std::uint32_t stream);

  // Closes every stream, drains the ring, joins the monitor thread and
  // folds the final counters into the registry. Idempotent; the accessors
  // below are safe (and exact) only after Finish().
  void Finish();

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::string AlertLog() const { return FormatAlertLog(alerts_); }
  GatewayStats stats() const;

  // Monitor-thread-owned while running; read it after Finish().
  obs::Registry& registry() { return registry_; }

  // Simulated timestamp of the last processed record (0 before any).
  SimTime last_record_time() const { return last_record_time_; }

 private:
  struct Item {
    std::uint32_t stream = 0;
    std::uint64_t ordinal = 0;
    std::uint64_t pushed_ns = 0;  // 0 = not latency-sampled
    trace::TraceRecord record;
  };

  void Enqueue(std::uint32_t stream, trace::TraceRecord&& record,
               std::uint64_t ordinal);
  void Publish();
  void MirrorIngestStats(std::uint32_t stream, const StreamParser& parser);
  void Process(Item& item);
  void ConsumeLoop();
  void MaybeSnapshot();
  void FoldCountersIntoRegistry();

  GatewayConfig config_;
  AlertCallback on_alert_;

  // Ingest side (producer thread). The aggregate counters are mirrored
  // into relaxed atomics after every Feed so the consumer can fold them
  // into snapshots without touching the producer-owned parser map.
  std::unordered_map<std::uint32_t, StreamParser> parsers_;
  std::unordered_map<std::uint32_t, StreamParser::Stats> mirrored_;
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> lines_in_{0};
  std::atomic<std::uint64_t> records_in_{0};
  std::atomic<std::uint64_t> lines_skipped_{0};
  std::atomic<std::uint64_t> lines_overlong_{0};
  std::atomic<std::uint64_t> streams_{0};

  // Hand-off. The producer move-assigns each record over the item the
  // consumer left in its claimed slot, so record strings are allocated and
  // freed on the producer; the consumer processes items in place.
  SpscRing<Item> ring_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> dropped_{0};

  // Monitor side (consumer thread; main thread after Finish()), on its own
  // cache line: the producer writes the members above on its hot path.
  alignas(64) std::unordered_map<std::uint32_t, FindingMonitors> monitors_;
  std::vector<Alert> alerts_;
  obs::Registry registry_;
  std::uint64_t processed_ = 0;
  std::uint64_t snapshots_ = 0;
  std::size_t queue_peak_ = 0;
  SimTime last_record_time_ = 0;

  // Read by the producer on every record, so off the monitor side's line.
  alignas(64) std::thread consumer_;
  bool started_ = false;
  bool finished_ = false;
};

// Formats `r` as one QXDM log line and feeds it to `gw` on `stream`: the
// glue a live tap uses (see stack::Testbed::TapTraces) to verify a running
// testbed in real time over the same byte-stream boundary files and
// sockets use.
void FeedRecord(Gateway& gw, std::uint32_t stream,
                const trace::TraceRecord& r);

}  // namespace cnv::rtv
