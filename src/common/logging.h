#ifndef GROUPSA_COMMON_LOGGING_H_
#define GROUPSA_COMMON_LOGGING_H_

#include <string>

namespace groupsa {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

// Sets the minimum level emitted to stderr. Default is kInfo. The level is
// one atomic: any thread may set or read it while others log.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emits `message` to stderr with a level prefix if `level` is at or above the
// configured minimum. Thread-safe: each line goes out in one fprintf call,
// which stdio locks, so lines from concurrent loggers never interleave.
void Log(LogLevel level, const std::string& message);

void LogDebug(const std::string& message);
void LogInfo(const std::string& message);
void LogWarning(const std::string& message);
void LogError(const std::string& message);

}  // namespace groupsa

#endif  // GROUPSA_COMMON_LOGGING_H_
