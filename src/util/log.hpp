// Minimal leveled logger.
//
// The simulator and benches use this instead of raw std::cerr so verbosity is
// controllable from one place (tests run silent, examples run at Info).
//
// The initial level comes from the MOCHA_LOG_LEVEL environment variable
// (trace/debug/info/warn/error/off, default warn), read once at first use —
// so mocha_sim, mocha_serve and the bench binaries are all controllable
// without code changes. Output goes through the observability layer's sink
// abstraction (obs/sink.hpp), the same one the tracer writes its documents
// through, so tests can capture log lines and tools can redirect them.
#pragma once

#include <atomic>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/sink.hpp"

namespace mocha::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Parses a MOCHA_LOG_LEVEL-style name (case-insensitive); nullopt on junk.
inline std::optional<LogLevel> parse_log_level(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower == "trace") return LogLevel::Trace;
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "info") return LogLevel::Info;
  if (lower == "warn" || lower == "warning") return LogLevel::Warn;
  if (lower == "error") return LogLevel::Error;
  if (lower == "off" || lower == "none") return LogLevel::Off;
  return std::nullopt;
}

/// Process-global log configuration. Thread-safe to set and query.
class Log {
 public:
  static LogLevel level() {
    return instance().level_.load(std::memory_order_relaxed);
  }
  static void set_level(LogLevel level) {
    instance().level_.store(level, std::memory_order_relaxed);
  }

  static void write(LogLevel level, const std::string& msg) {
    // Off is a threshold, never a message severity: writing "at" Off is a
    // silent no-op (and must not index the name table).
    if (level == LogLevel::Off || level < Log::level()) return;
    static constexpr const char* names[] = {"TRACE", "DEBUG", "INFO", "WARN",
                                            "ERROR"};
    std::string line;
    line.reserve(msg.size() + 16);
    line += "[mocha:";
    line += names[static_cast<int>(level)];
    line += "] ";
    line += msg;
    line += "\n";
    obs::log_sink().write(line);
  }

 private:
  Log() {
    const char* env = std::getenv("MOCHA_LOG_LEVEL");
    if (env != nullptr) {
      if (const auto parsed = parse_log_level(env)) {
        level_.store(*parsed, std::memory_order_relaxed);
      }
    }
  }

  static Log& instance() {
    static Log log;
    return log;
  }

  std::atomic<LogLevel> level_{LogLevel::Warn};
};

}  // namespace mocha::util

#define MOCHA_LOG(severity, ...)                                          \
  do {                                                                    \
    if (::mocha::util::LogLevel::severity >= ::mocha::util::Log::level()) { \
      std::ostringstream mocha_log_os_;                                   \
      mocha_log_os_ << __VA_ARGS__;                                       \
      ::mocha::util::Log::write(::mocha::util::LogLevel::severity,        \
                                mocha_log_os_.str());                     \
    }                                                                     \
  } while (false)
