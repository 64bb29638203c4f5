#include "rtv/gateway.h"

#include <chrono>
#include <stdexcept>

#include "obs/export.h"
#include "trace/qxdm.h"

namespace cnv::rtv {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Monitor-latency buckets in microseconds: sub-microsecond steady state,
// tail capturing scheduler hiccups.
std::vector<double> LatencyMicrosBounds() {
  return {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000};
}

const GatewayConfig& Validated(const GatewayConfig& config) {
  if (config.ring_capacity < 2 || config.ring_capacity > kMaxRingRecords) {
    throw std::invalid_argument(
        "GatewayConfig::ring_capacity must be in [2, " +
        std::to_string(kMaxRingRecords) + "] records");
  }
  if (config.max_line_bytes == 0) {
    throw std::invalid_argument("GatewayConfig::max_line_bytes must be > 0");
  }
  return config;
}

}  // namespace

Gateway::Gateway(GatewayConfig config)
    : config_(Validated(config)), ring_(config.ring_capacity) {}

Gateway::~Gateway() { Finish(); }

void Gateway::Start() {
  if (started_ || !config_.threaded) return;
  started_ = true;
  consumer_ = std::thread([this] { ConsumeLoop(); });
}

void Gateway::Feed(std::uint32_t stream, std::string_view bytes) {
  auto [it, inserted] =
      parsers_.try_emplace(stream, config_.max_line_bytes);
  if (inserted) streams_.fetch_add(1, std::memory_order_relaxed);
  it->second.Feed(bytes, [&](trace::TraceRecord&& r, std::uint64_t ordinal) {
    Enqueue(stream, std::move(r), ordinal);
  });
  Publish();
  MirrorIngestStats(stream, it->second);
}

void Gateway::CloseStream(std::uint32_t stream) {
  const auto it = parsers_.find(stream);
  if (it == parsers_.end()) return;
  it->second.Finish([&](trace::TraceRecord&& r, std::uint64_t ordinal) {
    Enqueue(stream, std::move(r), ordinal);
  });
  Publish();
  MirrorIngestStats(stream, it->second);
}

// Republishes this stream's (monotonic) parser totals into the shared
// atomics by adding the delta since the last mirror, so the consumer can
// snapshot ingest counters without touching the producer-owned parser map.
void Gateway::MirrorIngestStats(std::uint32_t stream,
                                const StreamParser& parser) {
  const auto& ps = parser.stats();
  StreamParser::Stats& prev = mirrored_[stream];
  bytes_in_.fetch_add(ps.bytes - prev.bytes, std::memory_order_relaxed);
  lines_in_.fetch_add(ps.lines - prev.lines, std::memory_order_relaxed);
  records_in_.fetch_add(ps.records - prev.records, std::memory_order_relaxed);
  lines_skipped_.fetch_add(ps.skipped - prev.skipped,
                           std::memory_order_relaxed);
  lines_overlong_.fetch_add(ps.overlong - prev.overlong,
                            std::memory_order_relaxed);
  prev = ps;
}

void Gateway::Enqueue(std::uint32_t stream, trace::TraceRecord&& record,
                      std::uint64_t ordinal) {
  const std::uint64_t pushed_ns =
      config_.latency_sample_every != 0 &&
              ordinal % config_.latency_sample_every == 0
          ? NowNs()
          : 0;
  if (!config_.threaded || !started_) {
    Item item{stream, ordinal, pushed_ns, std::move(record)};
    Process(item);
    return;
  }
  Item* slot = ring_.Claim();
  if (slot == nullptr) {
    // Full: let the consumer see what this Feed has claimed so far.
    Publish();
    if (config_.backpressure == Backpressure::kDropNewest) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    while ((slot = ring_.Claim()) == nullptr) std::this_thread::yield();
  }
  // Move-assigning over the item the consumer left behind hands its old
  // strings to `record`, which frees them here on the producer.
  slot->stream = stream;
  slot->ordinal = ordinal;
  slot->pushed_ns = pushed_ns;
  slot->record = std::move(record);
  if (ring_.Unpublished() == kBatchRecords) ring_.Publish();
}

void Gateway::Publish() {
  if (ring_.Unpublished() != 0) ring_.Publish();
}

void Gateway::Process(Item& item) {
  const std::size_t before = alerts_.size();
  auto [it, inserted] = monitors_.try_emplace(item.stream, item.stream);
  it->second.Step(item.record, item.ordinal, &alerts_);
  ++processed_;
  last_record_time_ = item.record.time;
  for (std::size_t i = before; i < alerts_.size(); ++i) {
    registry_.GetCounter("rtv.alerts", "alerts emitted by the S1-S6 monitors")
        .Increment();
    registry_
        .GetCounter("rtv.alerts." + ToString(alerts_[i].kind),
                    "alerts for one finding")
        .Increment();
    if (on_alert_) on_alert_(alerts_[i]);
  }
  if (item.pushed_ns != 0) {
    const double us =
        static_cast<double>(NowNs() - item.pushed_ns) / 1000.0;
    registry_
        .GetHistogram("rtv.record_latency_us", LatencyMicrosBounds(),
                      "sampled parse-to-processed latency per record")
        .Observe(us);
  }
  if ((processed_ & 1023) == 0) {
    const std::size_t depth = ring_.SizeApprox();
    if (depth > queue_peak_) queue_peak_ = depth;
    registry_.GetGauge("rtv.queue_depth", "ring occupancy, sampled")
        .Set(static_cast<double>(depth));
  }
  MaybeSnapshot();
}

void Gateway::ConsumeLoop() {
  // Processes every published record in place, handing the slots back to
  // the producer kBatchRecords at a time and at the end of the run.
  const auto drain = [this] {
    std::size_t n = 0;
    while (Item* item = ring_.Front()) {
      Process(*item);
      ring_.Pop();
      if (++n % kBatchRecords == 0) ring_.Release();
    }
    if (n % kBatchRecords != 0) ring_.Release();
    return n != 0;
  };
  for (;;) {
    if (drain()) continue;
    if (done_.load(std::memory_order_acquire)) {
      // The producer has stopped pushing; drain whatever raced in between
      // the empty ring above and the flag read, then exit.
      drain();
      return;
    }
    std::this_thread::yield();
  }
}

void Gateway::MaybeSnapshot() {
  if (config_.snapshot_every == 0 || config_.snapshot_path.empty()) return;
  if (processed_ % config_.snapshot_every != 0) return;
  FoldCountersIntoRegistry();
  ++snapshots_;
  obs::WriteFile(config_.snapshot_path, registry_.ToJson(last_record_time_));
}

void Gateway::FoldCountersIntoRegistry() {
  // Ingest-side totals live in plain counters on the producer; the consumer
  // reads them only through this fold, which either runs on the consumer
  // against monotonic values (snapshot: slightly stale is fine) or after
  // the join (exact). Counters are monotonic, so Set-style overwrite via
  // a gauge would lose the help text; instead recreate increments.
  const auto set_counter = [&](const std::string& name, std::uint64_t v,
                               const std::string& help) {
    auto& c = registry_.GetCounter(name, help);
    if (v >= c.value()) c.Increment(v - c.value());
  };
  GatewayStats s = stats();
  set_counter("rtv.bytes_in", s.bytes_in, "trace bytes ingested");
  set_counter("rtv.lines_in", s.lines_in, "log lines seen");
  set_counter("rtv.records_in", s.records_in, "records parsed");
  set_counter("rtv.lines_skipped", s.lines_skipped, "malformed lines");
  set_counter("rtv.lines_overlong", s.lines_overlong,
              "lines discarded at the length cap");
  set_counter("rtv.records_dropped", s.records_dropped,
              "records dropped by count-and-drop backpressure");
  set_counter("rtv.records_processed", s.records_processed,
              "records stepped through the monitors");
  registry_.GetGauge("rtv.streams", "distinct ingest streams")
      .Set(static_cast<double>(s.streams));
  registry_.GetGauge("rtv.queue_peak", "highest sampled ring occupancy")
      .Set(static_cast<double>(queue_peak_));
}

void Gateway::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [stream, parser] : parsers_) {
    CloseStream(stream);
  }
  done_.store(true, std::memory_order_release);
  if (started_ && consumer_.joinable()) consumer_.join();
  started_ = false;
  FoldCountersIntoRegistry();
}

GatewayStats Gateway::stats() const {
  GatewayStats s;
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.lines_in = lines_in_.load(std::memory_order_relaxed);
  s.records_in = records_in_.load(std::memory_order_relaxed);
  s.lines_skipped = lines_skipped_.load(std::memory_order_relaxed);
  s.lines_overlong = lines_overlong_.load(std::memory_order_relaxed);
  s.streams = static_cast<std::size_t>(
      streams_.load(std::memory_order_relaxed));
  s.records_dropped = dropped_.load(std::memory_order_relaxed);
  s.records_processed = processed_;
  s.alerts = alerts_.size();
  s.snapshots = snapshots_;
  s.queue_peak = queue_peak_;
  return s;
}

void FeedRecord(Gateway& gw, std::uint32_t stream,
                const trace::TraceRecord& r) {
  std::string line = trace::FormatRecord(r);
  line += '\n';
  gw.Feed(stream, line);
}

}  // namespace cnv::rtv
