// Runtime-verification gateway throughput: records/sec sustained through
// ingest parse -> SPSC ring -> abstraction -> S1-S6 monitors, single-stream
// and multiplexed across stream counts, in 64 KiB chunks and one line per
// Feed (blocking and drop-newest backpressure). The corpus is the golden S1-S6
// scenario catalog concatenated and repeated, so every finding signature
// keeps firing at full rate; the alert count is reported next to the wall
// time so a perf change that also changed monitor behaviour is visible.
//
// Usage:  ./rtv_throughput [--bench-json PATH] [--quick]
//   --bench-json PATH   also write a machine-readable report (default
//                       BENCH_rtv.json in the working directory)
//   --quick             shrink the corpus for smoke runs
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "conf/golden.h"
#include "obs/export.h"
#include "rtv/gateway.h"
#include "trace/qxdm.h"

namespace cnv {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOutcome {
  std::string name;
  std::size_t streams = 0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::uint64_t alerts = 0;
  double wall_seconds = 0;
  double records_per_sec = 0;
};

// `corpus` cut into 64 KiB chunks, or into single lines when `per_line`
// (the shape of a live tap: rtv::FeedRecord feeds one line per call).
std::vector<std::string_view> Pieces(const std::string& corpus,
                                     bool per_line) {
  constexpr std::size_t kChunk = 64 * 1024;
  std::vector<std::string_view> out;
  for (std::size_t off = 0; off < corpus.size();) {
    const std::size_t len =
        per_line ? corpus.find('\n', off) + 1 - off : kChunk;
    out.push_back(std::string_view(corpus).substr(off, len));
    off += out.back().size();
  }
  return out;
}

// Feeds `pieces` (the corpus, repeated `reps` times) round-robin across
// `streams` gateway streams; best wall time over `tries`. Records/sec
// counts every record offered, dropped ones included.
RunOutcome RunIngest(const std::string& name,
                     const std::vector<std::string_view>& pieces,
                     std::size_t corpus_records, std::size_t reps,
                     std::size_t streams, bool threaded, int tries,
                     rtv::Backpressure backpressure =
                         rtv::Backpressure::kBlock) {
  RunOutcome out;
  out.name = name;
  out.streams = streams;
  double best = 1e300;
  for (int t = 0; t < tries; ++t) {
    rtv::GatewayConfig cfg;
    cfg.threaded = threaded;
    cfg.backpressure = backpressure;
    cfg.latency_sample_every = 4096;
    rtv::Gateway gw(cfg);
    gw.Start();
    const double t0 = Now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const std::string_view piece : pieces) {
        // Whole repetitions round-robin across streams, so every stream
        // sees complete scenarios and every signature still fires.
        gw.Feed(static_cast<std::uint32_t>(rep % streams), piece);
      }
    }
    gw.Finish();
    const double dt = Now() - t0;
    if (dt < best) best = dt;
    if (t == 0) {
      out.records = gw.stats().records_processed;
      out.dropped = gw.stats().records_dropped;
      out.alerts = gw.stats().alerts;
    }
  }
  out.wall_seconds = best;
  out.records_per_sec =
      best > 0 ? static_cast<double>(corpus_records) *
                     static_cast<double>(reps) / best
               : 0.0;
  return out;
}

void PrintRow(const RunOutcome& o) {
  std::printf("%-30s %2zu stream(s)  %9llu records  %8.4fs  %12.0f rec/s  "
              "alerts=%llu dropped=%llu\n",
              o.name.c_str(), o.streams, (unsigned long long)o.records,
              o.wall_seconds, o.records_per_sec,
              (unsigned long long)o.alerts, (unsigned long long)o.dropped);
}

std::string JsonRow(const RunOutcome& o) {
  return "    {\"name\": \"" + o.name + "\", \"streams\": " +
         std::to_string(o.streams) + ", \"records\": " +
         std::to_string(o.records) + ", \"dropped\": " +
         std::to_string(o.dropped) + ", \"alerts\": " +
         std::to_string(o.alerts) + ", \"wall_seconds\": " +
         std::to_string(o.wall_seconds) + ", \"records_per_sec\": " +
         std::to_string(o.records_per_sec) + "}";
}

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  std::string json_path = "BENCH_rtv.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--bench-json PATH] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  // Corpus: every golden scenario once, concatenated.
  std::string corpus;
  for (const auto& scenario : conf::GoldenScenarios()) {
    corpus += scenario.generate();
  }
  const std::size_t corpus_records = trace::ParseLog(corpus).size();
  const std::uint64_t target_records = quick ? 200'000 : 2'000'000;
  const std::size_t reps =
      (target_records + corpus_records - 1) / corpus_records;
  const int tries = quick ? 2 : 3;
  std::printf("corpus: %zu records (%zu bytes), %zu repetition(s) -> "
              "%zu records per run\n\n",
              corpus_records, corpus.size(), reps, corpus_records * reps);

  const std::vector<std::string_view> chunks = Pieces(corpus, false);
  const std::vector<std::string_view> lines = Pieces(corpus, true);
  std::vector<RunOutcome> rows;
  rows.push_back(RunIngest("inline (no ring)", chunks, corpus_records, reps,
                           1, /*threaded=*/false, tries));
  PrintRow(rows.back());
  rows.push_back(RunIngest("pipelined", chunks, corpus_records, reps, 1,
                           /*threaded=*/true, tries));
  PrintRow(rows.back());
  for (const std::size_t streams : {2u, 4u, 8u}) {
    rows.push_back(RunIngest("pipelined x" + std::to_string(streams), chunks,
                             corpus_records, reps, streams,
                             /*threaded=*/true, tries));
    PrintRow(rows.back());
  }
  // One line per Feed, as a live tap feeds: every Feed publishes what it
  // parsed, so the hand-off runs one record at a time.
  rows.push_back(RunIngest("inline, line per feed", lines, corpus_records,
                           reps, 1, /*threaded=*/false, tries));
  PrintRow(rows.back());
  rows.push_back(RunIngest("pipelined, line per feed", lines,
                           corpus_records, reps, 1, /*threaded=*/true,
                           tries));
  PrintRow(rows.back());
  rows.push_back(RunIngest("pipelined drop, line per feed", lines,
                           corpus_records, reps, 1, /*threaded=*/true, tries,
                           rtv::Backpressure::kDropNewest));
  PrintRow(rows.back());

  std::string json = "{\n  \"corpus_records\": " +
                     std::to_string(corpus_records) +
                     ",\n  \"records_per_run\": " +
                     std::to_string(corpus_records * reps) +
                     ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ",\n";
    json += JsonRow(rows[i]);
  }
  json += "\n  ]\n}\n";
  if (!obs::WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
