// Minimal leveled logger. Experiments run quietly by default; tests and
// examples can raise the level to see protocol activity.
//
// A CNV_LOG_* statement below the current level costs one level check: the
// line is never formatted and its `<<` operands are never evaluated, so
// debug lines on the stack's per-message path are free when filtered out.
#pragma once

#include <sstream>
#include <string>

namespace cnv {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Process-wide minimum level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emits one line to stderr if `level` passes the filter.
void LogLine(LogLevel level, const std::string& message);

namespace internal {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogLine(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

// Turns a finished `LogStream(...) << a << b` chain into void so it can be
// the other arm of `?: (void)0`. `&` binds looser than `<<`, so the whole
// chain is built first.
struct Voidify {
  void operator&(const LogStream&) const {}
};

}  // namespace internal
}  // namespace cnv

// Expands to a single expression, so `if (c) CNV_LOG_WARN << x; else ...`
// binds the `else` to the caller's `if`.
#define CNV_LOG_AT(level)                  \
  (level) < ::cnv::GetLogLevel() ? (void)0 \
      : ::cnv::internal::Voidify() & ::cnv::internal::LogStream(level)

#define CNV_LOG_DEBUG CNV_LOG_AT(::cnv::LogLevel::kDebug)
#define CNV_LOG_INFO CNV_LOG_AT(::cnv::LogLevel::kInfo)
#define CNV_LOG_WARN CNV_LOG_AT(::cnv::LogLevel::kWarn)
#define CNV_LOG_ERROR CNV_LOG_AT(::cnv::LogLevel::kError)
