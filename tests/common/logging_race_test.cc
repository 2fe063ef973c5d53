#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace groupsa {
namespace {

// The level is read by every thread that logs while another may set it.
// Race-labelled: under ThreadSanitizer a plain (non-atomic) level is a
// reported data race here.
TEST(LoggingRaceTest, SetLevelWhileOtherThreadsLog) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  std::atomic<bool> stop{false};
  std::vector<std::thread> loggers;
  for (int t = 0; t < 3; ++t) {
    loggers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        LogDebug("suppressed");
        LogInfo("suppressed");
      }
    });
  }
  // Flip between levels that both suppress the loggers' lines, so the test
  // prints nothing while it races.
  for (int i = 0; i < 2000; ++i)
    SetLogLevel(i % 2 == 0 ? LogLevel::kWarning : LogLevel::kError);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : loggers) t.join();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

}  // namespace
}  // namespace groupsa
