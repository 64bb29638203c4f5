// Shared machinery of the perfbench driver: clocks, seeded input streams,
// sample statistics, the result record every workload fills, and the
// in-memory span tracer used by the traced (--trace 1) run.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// ---- clocks and inputs ----------------------------------------------------

std::uint64_t NowNs();  // steady_clock, nanoseconds
double NowSeconds();

// SplitMix64: every generated input derives from --seed through this.
std::uint64_t SplitMix64(std::uint64_t& state);

// ---- options --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every workload's inputs so the self-test runs all of them quickly;
  // the correctness gates stay on.
  bool tiny = false;
  std::string source_id;               // git sha or source digest (run.py)
};

// ---- statistics -----------------------------------------------------------

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
// Median (mean of the two middle values for an even count); 0 when empty.
// Run figures are medians over passes, set-up repeats and latency blocks. A
// stretch disturbed by other tenants moves them only once it covers half of
// the run, and the middle of the samples is the part that repeats from run to
// run: which passes a shared host lets run fast is a lottery, so a figure
// taken from the fastest few spread 1.5-2x as much across runs.
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);

// Latency quantiles taken per block of samples and combined with Median,
// so a disturbed stretch of a run moves one block, not the run's figure.
// Only the open block is stored, keeping the benchmark's own memory out of
// peak_rss_mb. A block closes every `block` samples (0: only at EndBlock).
class BlockQuantiles {
 public:
  explicit BlockQuantiles(std::size_t block) : block_(block) {}

  void Add(double v) {
    open_.push_back(v);
    ++count_;
    if (block_ != 0 && open_.size() == block_) EndBlock();
  }
  void EndBlock();
  // Median of the closed blocks' p50 / p90 / p99; a run too short to
  // close a block reports its open one.
  double P50() const { return Combined(0); }
  double P90() const { return Combined(1); }
  double P99() const { return Combined(2); }
  std::uint64_t count() const { return count_; }

 private:
  std::size_t block_;
  std::uint64_t count_ = 0;
  static constexpr double kQ[3] = {0.5, 0.9, 0.99};
  double Combined(int q) const;

  std::vector<double> open_;
  std::vector<double> closed_[3];  // per closed block, one per kQ
};

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. `metrics` are the benchmark-wide names
// (BENCHMARK.json); `named` are the workload's own names for the same and
// further figures, printed on the detail line with `samples` counts.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  std::map<std::string, Metric> metrics;
  std::vector<Metric> named;
  std::map<std::string, std::string> info;  // detail-line extras (JSON text)

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{name, value, unit};
  }
  void Name(const std::string& name, double value, const std::string& unit) {
    named.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  // Counts one operation; a false `ok` is a failed operation, described by
  // `what()` (called only on failure).
  template <typename F>
  void Check(bool ok, F&& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what());
  }
};

// Peak resident set of this process, MiB.
double PeakRssMb();

// Runs `fn` on a new thread, joins it, and rethrows what it threw. Every
// measured pass runs this way, so each pass draws its own CPU placement on
// a shared host instead of the whole run inheriting one.
template <typename F>
void OnFreshThread(F&& fn) {
  std::exception_ptr error;
  std::thread t([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

// Times a workload's set-up throughout the run rather than only at its
// start: a shared host's speed drifts over seconds, and set-up samples taken
// only in the first second drift with it. Time() runs `make` once on a fresh
// thread and returns its product; Between(), called before each measured
// pass, repeats it into throwaway products while set-up has taken less than
// kShare of the run so far. Seconds() is the Median of all samples.
// PassClock() is a clock that stops during set-up samples: pass loops run to
// its deadline, so the passes still get the run's --seconds.
class SetupTimer {
 public:
  static constexpr double kShare = 0.15;

  template <typename F>
  auto Time(F&& make) {
    const double t0 = NowSeconds();
    auto product = Sample(make);
    spent_ += NowSeconds() - t0;
    return product;
  }

  template <typename F>
  void Between(F&& make) {
    while (spent_ < kShare * (NowSeconds() - start_)) {
      const double t0 = NowSeconds();
      Sample(make);  // the throwaway product is released here
      spent_ += NowSeconds() - t0;
    }
  }

  double Seconds() const { return Median(walls_); }
  std::size_t samples() const { return walls_.size(); }
  double PassClock() const { return NowSeconds() - spent_; }

 private:
  template <typename F>
  auto Sample(F& make) {
    std::optional<decltype(make())> product;
    OnFreshThread([&] {
      const double t0 = NowSeconds();
      product.emplace(make());
      walls_.push_back(NowSeconds() - t0);
    });
    return std::move(*product);
  }

  double start_ = NowSeconds();
  double spent_ = 0;  // wall of every sample, thread and release included
  std::vector<double> walls_;
};

// ---- tracer ---------------------------------------------------------------

// Spans recorded from the benchmark's own code around each call into a
// layer. Off by default: a disabled Span costs one branch. Each thread
// appends to its own buffer (recycled when the thread exits, so a worker
// slot keeps one buffer), so recording takes no lock.
namespace trace {

void Enable(bool on);
bool Enabled();

class Span {
 public:
  // `name` must be a string literal (stored by pointer). `run` ties the
  // span to a cell / pass id.
  Span(const char* name, std::uint64_t run);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();
  // Valid after End(): the span's duration and the part of it covered by
  // child spans (0 when tracing is off).
  std::uint64_t duration_ns() const { return duration_ns_; }
  std::uint64_t child_ns() const { return child_ns_; }

 private:
  bool active_ = false;
  std::uint64_t duration_ns_ = 0;
  std::uint64_t child_ns_ = 0;
};

struct Total {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

// Per-name totals over every thread's buffer. Call only while no thread
// records.
std::map<std::string, Total> Totals();

}  // namespace trace

// Ends a traced run: reports the tracer's overhead (Median of the
// traced pass walls minus the untraced ones) and writes the retained spans
// as Chrome trace-event JSON plus the self-time table to
// .bench_out/<workload>-*.
void FinishTrace(const Options& o, const std::vector<double>& untraced_pass_s,
                 const std::vector<double>& traced_pass_s, Result& r);

// Worker threads for the parallel workloads: 4, or fewer on a smaller host.
int Workers();

// ---- workloads ------------------------------------------------------------

Result RunPipeline(const Options& o);
Result RunScreen(const Options& o);
Result RunWatchdog(const Options& o);

}  // namespace perfbench
