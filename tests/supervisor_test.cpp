// Tests for the supervisor's worker stream and ladder (mdp/supervisor,
// DESIGN.md section 14), driving superviseCells directly with synthetic
// fills: large outcomes cross the pipe byte-exact while the parent
// reads every live stream (no deadlock on a full pipe), and a unit
// whose worker dies is retried, bisected and isolated while every other
// unit is delivered exactly once.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "mdp/supervisor.h"

namespace mbf {
namespace {

/// A deterministic payload of `bytes` bytes for `unit`.
std::string payloadFor(int unit, std::size_t bytes) {
  std::string out(bytes, '\0');
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((static_cast<std::size_t>(unit) * 131 + i * 7) &
                               0xFF);
  }
  return out;
}

TEST(SupervisorTest, LargeOutcomesArriveByteExactUnderBackPressure) {
  // 24 units over jobs=2 run as ranges of 3: each worker streams 3 x 1
  // MiB, 16 times a pipe's buffer, so it blocks until the parent reads.
  constexpr int kUnits = 24;
  constexpr std::size_t kBytes = 1u << 20;
  std::map<int, int> deliveries;
  int mismatches = 0;
  SupervisorConfig config;
  config.workDir = "supervisor_test_backpressure.workers";
  config.numShapes = kUnits;
  config.jobs = 2;
  config.maxRetries = 0;
  // A deadlocked worker is killed instead of hanging the test.
  config.workerTimeoutMs = 5000.0;
  config.fill = [&](int unit, bool) { return payloadFor(unit, kBytes); };
  config.deliver = [&](int unit, std::string_view bytes) {
    ++deliveries[unit];
    if (bytes != payloadFor(unit, kBytes)) ++mismatches;
    return true;
  };
  const SupervisorResult result = superviseCells(config);
  std::filesystem::remove_all(config.workDir);
  ASSERT_TRUE(result.status.ok()) << result.status.str();
  EXPECT_EQ(mismatches, 0);
  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kUnits));
  for (const auto& [unit, count] : deliveries) {
    EXPECT_EQ(count, 1) << "unit " << unit;
  }
  EXPECT_EQ(result.counters.hungWorkers, 0);
  EXPECT_EQ(result.counters.crashedWorkers, 0);
  EXPECT_TRUE(result.isolatedShapes.empty());
}

TEST(SupervisorTest, CrashingUnitIsIsolatedAndEveryOtherDeliveredOnce) {
  // jobs=1 over 12 units makes ranges of 3; unit 3 opens [3, 6), so its
  // range makes no progress, is retried, bisected, and unit 3 alone is
  // re-run fallback-only.
  constexpr int kUnits = 12;
  constexpr int kCulprit = 3;
  std::map<int, std::string> outcomes;
  std::map<int, int> deliveries;
  SupervisorConfig config;
  config.workDir = "supervisor_test_ladder.workers";
  config.numShapes = kUnits;
  config.jobs = 1;
  config.backoffBaseMs = 1.0;
  config.fill = [&](int unit, bool fallbackOnly) {
    if (unit == kCulprit && !fallbackOnly) std::abort();
    return std::string(fallbackOnly ? "fallback " : "primary ") +
           std::to_string(unit);
  };
  config.deliver = [&](int unit, std::string_view bytes) {
    ++deliveries[unit];
    outcomes[unit] = std::string(bytes);
    return true;
  };
  const SupervisorResult result = superviseCells(config);
  std::filesystem::remove_all(config.workDir);
  ASSERT_TRUE(result.status.ok()) << result.status.str();
  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kUnits));
  for (int unit = 0; unit < kUnits; ++unit) {
    EXPECT_EQ(deliveries[unit], 1) << "unit " << unit;
    EXPECT_EQ(outcomes[unit], std::string(unit == kCulprit ? "fallback "
                                                           : "primary ") +
                                  std::to_string(unit));
  }
  EXPECT_EQ(result.isolatedShapes, std::vector<int>{kCulprit});
  EXPECT_EQ(result.counters.crashedShapes, 1);
  EXPECT_EQ(result.counters.bisectedRanges, 1);
  EXPECT_GE(result.counters.crashedWorkers, 1);
}

}  // namespace
}  // namespace mbf
