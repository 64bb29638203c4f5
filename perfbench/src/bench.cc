#include "bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double below = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (below + v[mid]) / 2;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void BlockQuantiles::EndBlock() {
  if (open_.empty()) return;
  for (int q = 0; q < 3; ++q) closed_[q].push_back(Quantile(open_, kQ[q]));
  open_.clear();
}

double BlockQuantiles::Combined(int q) const {
  return closed_[q].empty() ? Quantile(open_, kQ[q])
                             : Median(closed_[q]);
}

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
// of the process image before execve, so it would report the launcher's
// size whenever that is larger than the benchmark's.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  double kib = 0;
  while (in >> key) {
    if (key == "VmHWM:" && in >> kib) return kib / 1024.0;
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

namespace trace {
namespace {

// Raw spans kept per thread buffer for the Chrome trace file, allocated and
// touched when the buffer is made so recording neither reallocates nor
// page-faults; totals are kept for every span.
constexpr std::size_t kSpansPerBuffer = 32'768;

struct RawSpan {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  const char* parent;  // nullptr for a root span
  std::uint64_t run;
  int worker;
};

struct Open {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  std::uint64_t run;
};

struct NameTotal {
  const char* name;
  Total total;
};

struct Buffer {
  int worker = 0;
  std::vector<Open> stack;
  std::vector<RawSpan> spans;  // kSpansPerBuffer slots, `retained` used
  std::size_t retained = 0;
  std::vector<NameTotal> totals;  // few names: linear search by pointer
};

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> all;  // guarded by mu
  std::vector<Buffer*> free;                 // guarded by mu
};

Registry& Reg() {
  static Registry r;
  return r;
}

// Returns the thread's buffer to the free list when the thread exits, so
// pools that spawn fresh threads per dispatch reuse a bounded set.
struct Holder {
  Buffer* buf = nullptr;
  ~Holder() {
    if (buf == nullptr) return;
    Registry& r = Reg();
    std::lock_guard<std::mutex> lock(r.mu);
    r.free.push_back(buf);
  }
};

thread_local Holder t_holder;

Buffer& Local() {
  if (t_holder.buf == nullptr) {
    Registry& r = Reg();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free.empty()) {
      t_holder.buf = r.free.back();
      r.free.pop_back();
    } else {
      r.all.push_back(std::make_unique<Buffer>());
      r.all.back()->worker = static_cast<int>(r.all.size()) - 1;
      r.all.back()->stack.reserve(16);
      r.all.back()->spans.resize(kSpansPerBuffer);
      t_holder.buf = r.all.back().get();
    }
  }
  return *t_holder.buf;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t run) {
  if (!Enabled()) return;
  active_ = true;
  Local().stack.push_back(Open{name, NowNs(), 0, run});
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  const std::uint64_t end = NowNs();
  Buffer& b = Local();
  const Open open = b.stack.back();
  b.stack.pop_back();
  duration_ns_ = end - open.start_ns;
  child_ns_ = open.child_ns;
  const char* parent = b.stack.empty() ? nullptr : b.stack.back().name;
  auto it =
      std::find_if(b.totals.begin(), b.totals.end(),
                   [&](const NameTotal& t) { return t.name == open.name; });
  if (it == b.totals.end()) {
    b.totals.push_back(NameTotal{open.name, {}});
    it = b.totals.end() - 1;
  }
  ++it->total.count;
  it->total.total_s += static_cast<double>(duration_ns_) * 1e-9;
  it->total.self_s += static_cast<double>(duration_ns_ - child_ns_) * 1e-9;
  if (b.retained < b.spans.size()) {
    b.spans[b.retained++] =
        RawSpan{open.name, open.start_ns, end, parent, open.run, b.worker};
  }
  // The parent is charged up to now, so this span's own bookkeeping counts
  // as child time rather than as a gap in the parent's coverage.
  if (!b.stack.empty()) b.stack.back().child_ns += NowNs() - open.start_ns;
}

std::map<std::string, Total> Totals() {
  std::map<std::string, Total> out;
  Registry& r = Reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.all) {
    for (const NameTotal& t : b->totals) {
      Total& o = out[t.name];
      o.count += t.total.count;
      o.total_s += t.total.total_s;
      o.self_s += t.total.self_s;
    }
  }
  return out;
}

namespace {

bool WriteFiles(const std::string& chrome_path, const std::string& table_path) {
  std::vector<RawSpan> spans;
  {
    Registry& r = Reg();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& b : r.all) {
      spans.insert(spans.end(), b->spans.begin(),
                   b->spans.begin() + static_cast<std::ptrdiff_t>(b->retained));
    }
  }
  std::uint64_t origin = ~0ull;
  for (const RawSpan& s : spans) origin = std::min(origin, s.start_ns);

  std::FILE* f = std::fopen(chrome_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RawSpan& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"run\": %llu, \"parent\": \"%s\"}}",
                 i == 0 ? "" : ",", s.name, s.worker,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.run),
                 s.parent == nullptr ? "" : s.parent);
  }
  std::fprintf(f, "\n]}\n");
  const bool chrome_ok = std::fclose(f) == 0;

  f = std::fopen(table_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%-22s %10s %12s %12s %8s\n", "span", "count", "total_s",
               "self_s", "self%");
  const auto totals = Totals();
  double self_sum = 0;
  for (const auto& [name, t] : totals) self_sum += t.self_s;
  for (const auto& [name, t] : totals) {
    std::fprintf(f, "%-22s %10llu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s, t.self_s,
                 self_sum > 0 ? 100.0 * t.self_s / self_sum : 0.0);
  }
  return std::fclose(f) == 0 && chrome_ok;
}

}  // namespace
}  // namespace trace

void FinishTrace(const Options& o, const std::vector<double>& untraced_pass_s,
                 const std::vector<double>& traced_pass_s, Result& r) {
  const double untraced = Median(untraced_pass_s);
  const double overhead = Median(traced_pass_s) - untraced;
  r.Set("bench.trace_overhead_s", overhead, "s");
  r.Set("bench.trace_overhead_share", overhead / untraced, "ratio");
  const std::string dir = ".bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = dir + "/" + o.workload;
  if (ec || !trace::WriteFiles(stem + "-trace.json", stem + "-selftime.txt")) {
    std::fprintf(stderr, "perfbench: cannot write %s-*\n", stem.c_str());
  }
}

int Workers() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}
}  // namespace perfbench
