// watchdog: a threaded rtv::Gateway (kBlock backpressure) fed a QXDM byte
// corpus built at set-up from the seed: golden S1-S6 catalog logs
// interleaved with counterexample replays (conf::Replay of the compiled
// S1-S4 counterexamples on OP-I/OP-II at seed-drawn replay seeds), spread
// over 8 streams. Two phases:
//
//   saturate   the whole corpus fed as fast as Feed accepts it, in 64 KiB
//              chunks (like `watchdog < file`)
//   open loop  the first 256 KiB of every stream fed as a live tap in 4 KiB
//              chunks at a fixed offered rate; each chunk is due at start +
//              records-before / rate, and an alert's lag runs from the due
//              time of the chunk carrying its completing record to the alert
//              callback
//
// Gate: every pass's alert log must equal an inline (threaded = false)
// gateway's over the same chunk schedule, with no dropped records.
#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "conf/compile.h"
#include "conf/golden.h"
#include "conf/script.h"
#include "mck/explorer.h"
#include "rtv/gateway.h"
#include "stack/carrier.h"
#include "trace/qxdm.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kStreams = 8;
constexpr std::size_t kSaturateChunk = 64 * 1024;
constexpr std::size_t kLiveChunk = 4 * 1024;
constexpr std::uint64_t kLiveBytesPerStream = 256 * 1024;
// Offered rates of the live tap; the first is the reported one. The
// saturating rate of a shared 4-vCPU host swings between ~1.4M and ~2.7M
// records/s over minutes; at 1M offered the gateway then runs up to ~70%
// busy and queueing moved the p90 lag by a third between runs, while 250k
// keeps it under ~20% busy. 1M stays on the detail line.
constexpr double kLiveRates[] = {250e3, 1e6};

struct Chunk {
  std::uint32_t stream = 0;
  std::string_view bytes;
  std::uint64_t records = 0;  // lines completed inside this chunk
};

struct Corpus {
  std::vector<std::string> streams;  // QXDM text, one record per line
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

// One counterexample script per screening finding, from the defect models.
std::vector<cnv::conf::ScenarioScript> CompileScripts() {
  namespace model = cnv::model;
  namespace conf = cnv::conf;
  std::vector<conf::ScenarioScript> out;
  const auto add = [&](const auto& m, const char* property, auto compile) {
    const auto res = cnv::mck::Explore(m, m.Properties());
    const auto* v = res.FindViolation(property);
    if (v == nullptr) return;
    const conf::CompileResult c = compile(m, *v);
    if (c.ok) out.push_back(c.script);
  };
  add(model::S1Model(), model::kPacketServiceOk, &conf::CompileS1);
  add(model::S2Model(), model::kPacketServiceOk, &conf::CompileS2);
  add(model::S3Model(), model::kMmOk, &conf::CompileS3);
  add(model::S4Model(), model::kCallServiceOk, &conf::CompileS4);
  return out;
}

Corpus BuildCorpus(std::uint64_t seed, bool tiny) {
  std::vector<std::string> sessions;
  for (const auto& g : cnv::conf::GoldenScenarios()) {
    sessions.push_back(
        cnv::trace::FormatLog(cnv::trace::ParseLog(g.generate())));
  }
  const std::size_t goldens = sessions.size();
  std::uint64_t state = seed;
  const auto scripts = CompileScripts();
  for (int i = 0; i < (tiny ? 4 : 48); ++i) {
    cnv::conf::ReplayOptions ropt;
    ropt.seed = SplitMix64(state);
    const auto& script = scripts[SplitMix64(state) % scripts.size()];
    const bool op2 = SplitMix64(state) % 2 == 1;
    const auto outcome = cnv::conf::Replay(
        script, op2 ? cnv::stack::OpII() : cnv::stack::OpI(), ropt);
    sessions.push_back(cnv::trace::FormatLog(outcome.records));
  }
  // Half golden catalog entries, half replays, drawn per stream until the
  // stream holds its share of the corpus.
  const std::uint64_t per_stream = tiny ? 16 * 1024 : 1024 * 1024;
  Corpus c;
  c.streams.resize(kStreams);
  for (auto& text : c.streams) {
    while (text.size() < per_stream) {
      const std::uint64_t draw = SplitMix64(state);
      const std::size_t pick =
          draw % 2 == 0 ? (draw >> 1) % goldens
                        : goldens + (draw >> 1) % (sessions.size() - goldens);
      text += sessions[pick];
    }
    c.bytes += text.size();
    c.records += static_cast<std::uint64_t>(
        std::count(text.begin(), text.end(), '\n'));
  }
  return c;
}

// The first `bytes` of every stream, cut after the last whole line.
Corpus Prefix(const Corpus& c, std::uint64_t bytes) {
  Corpus p;
  for (const std::string& text : c.streams) {
    p.streams.push_back(text.substr(0, text.rfind('\n', bytes - 1) + 1));
    p.bytes += p.streams.back().size();
    p.records += static_cast<std::uint64_t>(std::count(
        p.streams.back().begin(), p.streams.back().end(), '\n'));
  }
  return p;
}

// Cuts every stream into `chunk`-byte pieces and interleaves them in a
// seed-drawn order (each stream's own chunks stay in order).
std::vector<Chunk> Schedule(const Corpus& c, std::size_t chunk,
                            std::uint64_t seed) {
  std::vector<std::vector<Chunk>> per(kStreams);
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    const std::string_view text = c.streams[s];
    for (std::size_t off = 0; off < text.size(); off += chunk) {
      const std::string_view piece = text.substr(off, chunk);
      per[s].push_back(Chunk{
          s, piece,
          static_cast<std::uint64_t>(
              std::count(piece.begin(), piece.end(), '\n'))});
    }
  }
  std::vector<Chunk> out;
  std::vector<std::size_t> next(kStreams, 0);
  std::vector<std::uint32_t> live;
  for (std::uint32_t s = 0; s < kStreams; ++s) live.push_back(s);
  std::uint64_t state = seed;
  while (!live.empty()) {
    const std::size_t k = SplitMix64(state) % live.size();
    const std::uint32_t s = live[k];
    out.push_back(per[s][next[s]++]);
    if (next[s] == per[s].size()) live.erase(live.begin() + k);
  }
  return out;
}

struct Fed {
  std::string alert_log;
  cnv::rtv::GatewayStats stats;
};

// Feeds a whole schedule through one gateway. The alert log is
// byte-identical for any chunking of the same interleaving.
Fed FeedAll(const std::vector<Chunk>& schedule, bool threaded,
            std::uint64_t run) {
  cnv::rtv::GatewayConfig cfg;
  cfg.threaded = threaded;
  cnv::rtv::Gateway gw(cfg);
  gw.Start();
  for (const Chunk& ch : schedule) {
    trace::Span span("rtv.feed", run);
    gw.Feed(ch.stream, ch.bytes);
  }
  {
    trace::Span span("rtv.finish", run);
    gw.Finish();
  }
  return Fed{gw.AlertLog(), gw.stats()};
}

struct LiveAlert {
  std::uint32_t stream;
  std::uint64_t record_index;
  std::uint64_t at_ns;
};

}  // namespace

Result RunWatchdog(const Options& o) {
  Result r;
  // Set-up: the corpus and its chunk schedules. The chunks view the
  // corpus's strings, which moving the vectors that own them keeps in place.
  struct Inputs {
    Corpus corpus, live_corpus;
    std::vector<Chunk> saturate, live;
  };
  const auto make_inputs = [&] {
    Inputs in;
    in.corpus = BuildCorpus(o.seed, o.tiny);
    in.live_corpus = Prefix(in.corpus, kLiveBytesPerStream);
    in.saturate = Schedule(in.corpus, kSaturateChunk, o.seed);
    in.live = Schedule(in.live_corpus, kLiveChunk, o.seed ^ 0x5eedull);
    return in;
  };
  SetupTimer setup;
  const Inputs inputs = setup.Time(make_inputs);
  const Corpus& corpus = inputs.corpus;
  const Corpus& live_corpus = inputs.live_corpus;
  const std::vector<Chunk>& saturate = inputs.saturate;
  const std::vector<Chunk>& live = inputs.live;

  // Reference alert logs from the inline gateway (timed: the traced run
  // reports the inline rate).
  std::vector<double> inline_s;
  Fed inline_saturate, inline_live;
  for (int i = 0; i < (o.trace ? 3 : 1); ++i) {
    const double t0 = NowSeconds();
    inline_saturate = FeedAll(saturate, false, 0);
    inline_s.push_back(NowSeconds() - t0);
  }
  inline_live = FeedAll(live, false, 0);
  const auto gate = [&](const Fed& f, const Fed& ref, std::uint64_t records,
                        const char* phase) {
    r.Check(f.alert_log == ref.alert_log && f.stats.records_dropped == 0 &&
                f.stats.records_processed == records,
            [&] {
              return std::string(phase) + ": " +
                     std::to_string(f.stats.alerts) + " alerts (inline " +
                     std::to_string(ref.stats.alerts) + "), " +
                     std::to_string(f.stats.records_dropped) + " dropped, " +
                     std::to_string(f.stats.records_processed) + "/" +
                     std::to_string(records) + " processed";
            });
  };
  r.Check(inline_saturate.stats.lines_skipped == 0 &&
              inline_saturate.stats.records_processed == corpus.records &&
              inline_live.stats.records_processed == live_corpus.records,
          [] { return std::string("corpus does not parse cleanly"); });

  std::vector<double> untraced_s, traced_s;
  std::size_t queue_peak = 0;
  std::uint64_t dropped = 0, skipped = 0, alerts = 0;
  const auto saturate_pass = [&](int pass, bool tracing) {
    trace::Enable(tracing);
    const double t0 = NowSeconds();
    const Fed f = FeedAll(saturate, true, pass);
    const double wall = NowSeconds() - t0;
    trace::Enable(false);
    (tracing ? traced_s : untraced_s).push_back(wall);
    gate(f, inline_saturate, corpus.records, "saturate");
    queue_peak = std::max(queue_peak, f.stats.queue_peak);
    dropped += f.stats.records_dropped;
    skipped += f.stats.lines_skipped;
    alerts = f.stats.alerts;
  };

  // Records offered before each live chunk, and per stream the cumulative
  // record count after each of its chunks, which maps an alert's
  // record_index to the chunk that completed the record.
  std::vector<std::uint64_t> before(live.size());
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> ends(
      kStreams);
  {
    std::vector<std::uint64_t> cum(kStreams, 0);
    std::uint64_t offered = 0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      before[j] = offered;
      offered += live[j].records;
      cum[live[j].stream] += live[j].records;
      ends[live[j].stream].emplace_back(cum[live[j].stream], j);
    }
  }
  // Per rate: quantiles of the time inside Gateway::Feed per live chunk and
  // of the alert lag, over blocks of 128 samples (about 12 ms of the tap at
  // 250k records/s), and of generator lateness, per pass.
  constexpr std::size_t kRates = std::size(kLiveRates);
  constexpr std::size_t kBlock = 128;
  std::vector<BlockQuantiles> feed_us(kRates, BlockQuantiles(kBlock)),
      lag_us(kRates, BlockQuantiles(kBlock)),
      late_ms(kRates, BlockQuantiles(0));
  std::vector<LiveAlert> fired;
  fired.reserve(inline_live.stats.alerts);  // no reallocation in a callback
  std::vector<std::uint64_t> due_ns(live.size());
  const auto live_pass = [&](std::size_t rate) {
    fired.clear();
    cnv::rtv::Gateway gw;
    gw.set_alert_callback([&fired](const cnv::rtv::Alert& a) {
      fired.push_back(LiveAlert{a.stream, a.record_index, NowNs()});
    });
    gw.Start();
    const std::uint64_t start = NowNs();
    for (std::size_t j = 0; j < live.size(); ++j) {
      due_ns[j] = start + static_cast<std::uint64_t>(
                              static_cast<double>(before[j]) /
                              kLiveRates[rate] * 1e9);
      std::uint64_t now = NowNs();
      while (now < due_ns[j]) now = NowNs();
      late_ms[rate].Add(static_cast<double>(now - due_ns[j]) * 1e-6);
      gw.Feed(live[j].stream, live[j].bytes);
      feed_us[rate].Add(static_cast<double>(NowNs() - now) * 1e-3);
    }
    gw.Finish();
    gate(Fed{gw.AlertLog(), gw.stats()}, inline_live, live_corpus.records,
         "open loop");
    for (const LiveAlert& a : fired) {
      const auto& e = ends[a.stream];
      const auto it = std::upper_bound(
          e.begin(), e.end(), a.record_index,
          [](std::uint64_t v, const auto& p) { return v < p.first; });
      if (it == e.end()) continue;  // cannot happen: the gate checks counts
      lag_us[rate].Add((static_cast<double>(a.at_ns) -
                        static_cast<double>(due_ns[it->second])) *
                       1e-3);
    }
    late_ms[rate].EndBlock();
  };

  // The phases alternate pass by pass, so all see the whole run's share of
  // host conditions. A traced run also alternates traced and untraced
  // saturating passes; open-loop passes are never traced.
  const double deadline = setup.PassClock() + o.seconds;
  for (int pass = 0;
       pass < (o.trace ? 4 : 2) || setup.PassClock() < deadline; ++pass) {
    setup.Between(make_inputs);
    OnFreshThread([&] { saturate_pass(pass, o.trace && pass % 2 == 1); });
    for (std::size_t rate = 0; rate < kRates; ++rate) {
      OnFreshThread([&] { live_pass(rate); });
    }
  }
  const auto feed_totals = trace::Totals();

  // The saturating rate is over the median pass wall.
  const double pass_s = Median(untraced_s);
  const double per_s = static_cast<double>(corpus.records) / pass_s;
  r.Set("throughput_per_s", per_s, "1/s");
  // The bounded latencies are the service time of one live chunk, like the
  // other workloads' per-cell and per-exploration times. The alert lag from
  // the due time adds the consumer's scheduling: the consumer yields its
  // vCPU whenever the ring is empty, so on a 4-vCPU host that squeezed the
  // vCPUs the p90 lag rose from ~50 us to ~4 ms for minutes at a time.
  r.Set("latency_p50_us", feed_us[0].P50(), "us");
  r.Set("latency_p90_us", feed_us[0].P90(), "us");
  r.Set("setup_s", setup.Seconds(), "s");
  r.Name("setup_s", setup.Seconds(), "s");
  r.Name("rtv_records_per_s", per_s, "1/s");
  r.Name("saturate_pass_s", pass_s, "s");
  r.Name("rtv_chunk_feed_p50_us", feed_us[0].P50(), "us");
  r.Name("rtv_chunk_feed_p90_us", feed_us[0].P90(), "us");
  r.Name("rtv_chunk_feed_p99_us", feed_us[0].P99(), "us");
  r.Name("rtv_alert_lag_p50_us", lag_us[0].P50(), "us");
  r.Name("rtv_alert_lag_p90_us", lag_us[0].P90(), "us");
  r.Name("rtv_alert_lag_p99_us", lag_us[0].P99(), "us");
  r.Name("rtv_gen_late_p50_ms", late_ms[0].P50(), "ms");
  r.Name("rtv_gen_late_p99_ms", late_ms[0].P99(), "ms");
  r.Name("rtv_alert_lag_p50_us_at_1m", lag_us[1].P50(), "us");
  r.Name("rtv_alert_lag_p90_us_at_1m", lag_us[1].P90(), "us");
  r.Name("rtv_alert_lag_p99_us_at_1m", lag_us[1].P99(), "us");
  r.Name("rtv_gen_late_p99_ms_at_1m", late_ms[1].P99(), "ms");
  r.Info("samples",
         "{\"saturate_passes\": " + std::to_string(untraced_s.size()) +
             ", \"alert_lags\": " + std::to_string(lag_us[0].count()) +
             ", \"live_chunks\": " + std::to_string(late_ms[0].count()) +
             ", \"alert_lags_at_1m\": " + std::to_string(lag_us[1].count()) +
             ", \"setups\": " + std::to_string(setup.samples()) + "}");
  r.Info("shape",
         "{\"streams\": " + std::to_string(kStreams) +
             ", \"corpus_records\": " + std::to_string(corpus.records) +
             ", \"corpus_bytes\": " + std::to_string(corpus.bytes) +
             ", \"live_records\": " + std::to_string(live_corpus.records) +
             ", \"saturate_chunk_bytes\": " + std::to_string(kSaturateChunk) +
             ", \"live_chunk_bytes\": " + std::to_string(kLiveChunk) +
             ", \"offered_records_per_s\": [250000, 1000000]" +
             ", \"loop\": \"open\"}");

  if (o.trace) {
    const auto total_s = [&](const char* name) {
      const auto it = feed_totals.find(name);
      return it == feed_totals.end() ? 0.0 : it->second.total_s;
    };
    const double mib = static_cast<double>(corpus.bytes) *
                       static_cast<double>(traced_s.size()) /
                       (1024.0 * 1024.0);
    r.Set("rtv.feed_us_per_mib", total_s("rtv.feed") / mib * 1e6, "us");
    r.Set("rtv.finish_s", total_s("rtv.finish") / traced_s.size(), "s");
    const double inline_per_s =
        static_cast<double>(corpus.records) / Median(inline_s);
    r.Set("rtv.inline_records_per_s", inline_per_s, "1/s");
    r.Set("rtv.ring_ns_per_record", (1.0 / per_s - 1.0 / inline_per_s) * 1e9,
          "ns");
    r.Set("rtv.queue_peak", static_cast<double>(queue_peak), "count");
    r.Set("rtv.records_dropped", static_cast<double>(dropped), "count");
    r.Set("rtv.lines_skipped", static_cast<double>(skipped), "count");
    r.Set("rtv.alerts", static_cast<double>(alerts), "count");
    r.Set("rtv.gen_late_ms", late_ms[0].P99(), "ms");
    FinishTrace(o, untraced_s, traced_s, r);
  }
  return r;
}

}  // namespace perfbench
