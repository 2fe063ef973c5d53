#include "common/logging.h"

#include <atomic>
#include <cstdio>

namespace groupsa {
namespace {

// Written by SetLogLevel, read by every thread that logs. Relaxed order is
// enough: the level guards no other data, and a logger racing a SetLogLevel
// may see either level.
std::atomic<LogLevel> g_min_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(level, std::memory_order_relaxed);
}

LogLevel GetLogLevel() { return g_min_level.load(std::memory_order_relaxed); }

void Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) return;
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

void LogDebug(const std::string& message) { Log(LogLevel::kDebug, message); }
void LogInfo(const std::string& message) { Log(LogLevel::kInfo, message); }
void LogWarning(const std::string& message) {
  Log(LogLevel::kWarning, message);
}
void LogError(const std::string& message) { Log(LogLevel::kError, message); }

}  // namespace groupsa
