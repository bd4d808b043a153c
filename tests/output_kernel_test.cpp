// Oracle tests for the output-path kernels: the SHA-256 block functions
// (the x86 SHA-extensions kernel against the portable loop), the
// JsonWriter's number text (against printf's %.{15,16,17}g and strtod),
// the .shots formatter (against the ostream formatting it replaced) and
// the row-bucketed overlap sweep (against the all-pairs sum). Built into
// the tsan-labelled binary, so both sanitizer presets replay them: UBSan
// watches the bucket arithmetic near +-2^31, TSan the one-time kernel
// choice.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/shot_stats.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

// --- SHA-256 ----------------------------------------------------------

/// Digest of `data` through `kernel`, fed in pieces of the given sizes
/// (cycled; the remainder in one piece when `pieces` is empty).
std::string digestOf(Sha256::Kernel kernel, std::string_view data,
                     const std::vector<std::size_t>& pieces = {}) {
  Sha256 h(kernel);
  std::size_t at = 0;
  for (std::size_t k = 0; at < data.size(); ++k) {
    const std::size_t n =
        pieces.empty() ? data.size()
                       : std::min(pieces[k % pieces.size()], data.size() - at);
    h.update(data.data() + at, n);
    at += n;
  }
  return h.hexDigest();
}

std::string randomBytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

TEST(Sha256KernelTest, FipsVectorsOnEveryKernel) {
  const std::pair<std::string, const char*> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [message, digest] : vectors) {
    EXPECT_EQ(digestOf(Sha256::Kernel::kPortable, message), digest);
    EXPECT_EQ(digestOf(Sha256::Kernel::kBest, message), digest);
  }
}

TEST(Sha256KernelTest, HardwareMatchesPortableOnEveryLengthAndSplit) {
  if (!Sha256::hardwareKernel()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  const std::string data = randomBytes(1024, 7);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::string_view message(data.data(), n);
    const std::string want = digestOf(Sha256::Kernel::kPortable, message);
    ASSERT_EQ(digestOf(Sha256::Kernel::kBest, message), want) << n;
    // Splits on, before and after the block boundary, plus ragged ones.
    for (const std::vector<std::size_t>& pieces :
         std::vector<std::vector<std::size_t>>{
             {1}, {63}, {64}, {65}, {n / 3 + 1}, {7, 64, 129, 3}}) {
      ASSERT_EQ(digestOf(Sha256::Kernel::kBest, message, pieces), want)
          << n << " bytes in pieces of " << pieces.front();
    }
  }
}

TEST(Sha256KernelTest, HardwareMatchesPortableOnThreeMegabytes) {
  if (!Sha256::hardwareKernel()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  const std::string data = randomBytes(3 << 20, 11);
  const std::string want = digestOf(Sha256::Kernel::kPortable, data);
  EXPECT_EQ(digestOf(Sha256::Kernel::kBest, data), want);
  EXPECT_EQ(digestOf(Sha256::Kernel::kBest, data, {65536, 1, 4095}), want);
  EXPECT_EQ(sha256Hex(data), want);
}

TEST(Sha256KernelTest, ConcurrentFirstUsesAgree) {
  // The kernel is chosen on first use; threads racing into that first
  // use must all get a correct digest (TSan checks the choice).
  const std::string data = randomBytes(4096, 3);
  const std::string want = digestOf(Sha256::Kernel::kPortable, data);
  std::vector<std::string> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] { got[t] = sha256Hex(data); });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& g : got) EXPECT_EQ(g, want);
}

// --- JsonWriter number text -------------------------------------------

/// The text one value gets as a document's root.
template <typename T>
std::string jsonText(T v) {
  JsonWriter w;
  w.value(v);
  std::string text = std::move(w).str();
  text.pop_back();  // the document's trailing newline
  return text;
}

/// The number formatting JsonWriter had before to_chars: the first of
/// %.15g, %.16g, %.17g that strtod reads back to the same double.
std::string printfOracle(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(JsonNumberTest, DoublesMatchThePrintfOracle) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      1e21,
      1e-7,
      1e22,
      123456789012345678.0,
      9007199254740992.0,  // 2^53
      std::nextafter(9007199254740992.0, 0.0),  // 2^53 - 1
      9007199254740994.0,  // 2^53 + 2, next above 2^53 (+1 rounds to it)
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 100000; ++i) {
    // Random bit patterns cover every exponent; NaN and inf included.
    std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  for (int i = 0; i < 20000; ++i) {
    // Subnormals: a zero exponent field, random mantissa and sign.
    std::uint64_t bits = rng() & 0x800fffffffffffffULL;
    double v;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  std::uniform_real_distribution<double> seconds(0.0, 10.0);
  for (int i = 0; i < 20000; ++i) values.push_back(seconds(rng));
  for (const double v : values) {
    ASSERT_EQ(jsonText(v), printfOracle(v)) << std::hexfloat << v;
  }
}

TEST(JsonNumberTest, IntegersMatchThePrintfOracle) {
  const std::int64_t signedValues[] = {
      0, 1, -1, 9, 10, -10, 2147483647, -2147483648LL,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : signedValues) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    EXPECT_EQ(jsonText(v), buf);
  }
  const std::uint64_t unsignedValues[] = {
      0, 1, 4294967295ULL, std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : unsignedValues) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    EXPECT_EQ(jsonText(v), buf);
  }
  EXPECT_EQ(jsonText(std::numeric_limits<int>::min()), "-2147483648");
}

// --- .shots formatter -------------------------------------------------

/// The ostream formatting the .shots writer had before formatBatchShots.
std::string ostreamOracle(const std::vector<Solution>& solutions) {
  std::ostringstream os;
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    os << "# shape " << i << ": " << solutions[i].shotCount() << " shots, "
       << solutions[i].failingPixels() << " failing px"
       << (solutions[i].degraded ? ", degraded" : "") << "\n";
    for (const Rect& s : solutions[i].shots) {
      os << s.x0 << " " << s.y0 << " " << s.x1 << " " << s.y1 << "\n";
    }
  }
  return os.str();
}

TEST(ShotsFormatTest, MatchesTheOstreamOracle) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<Solution> solutions(5);
  solutions[0].shots = {{kMin, kMin, kMax, kMax}, {0, 0, 0, 0},
                        {-1, -10, 9, 100}};
  solutions[0].failOn = 3;
  // solutions[1] is an empty section.
  solutions[2].shots = {{kMax, kMin, kMin, kMax}};
  solutions[2].degraded = true;
  solutions[2].failOff = std::numeric_limits<std::int64_t>::max() - 5;
  solutions[3].degraded = true;  // degraded and empty
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::int32_t> coord(kMin, kMax);
  for (int i = 0; i < 2000; ++i) {
    solutions[4].shots.push_back(
        {coord(rng), coord(rng), coord(rng), coord(rng)});
  }
  const std::string want = ostreamOracle(solutions);
  EXPECT_EQ(formatBatchShots(solutions), want);
  std::ostringstream os;
  writeBatchShots(os, solutions);
  EXPECT_EQ(os.str(), want);
  EXPECT_EQ(formatBatchShots({}), "");
}

// --- Overlap sweep ----------------------------------------------------

/// The O(n^2) all-pairs overlap sum computeShotStats used before the
/// sort-by-x sweep replaced it — kept as the oracle the sweep must
/// match exactly (int64 sums are order-independent, so "exactly" means
/// bitwise).
std::int64_t bruteForceOverlap(const std::vector<Rect>& shots) {
  std::int64_t overlap = 0;
  for (std::size_t i = 0; i < shots.size(); ++i) {
    for (std::size_t j = i + 1; j < shots.size(); ++j) {
      overlap += shots[i].intersection(shots[j]).area();
    }
  }
  return overlap;
}

TEST(ShotStatsTest, SweepMatchesBruteForceOracle) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    // Vary density: tight clusters stress the active set, spread-out
    // sets stress the pruning.
    const int n = 1 + static_cast<int>(rng() % 120);
    const int space = trial % 2 == 0 ? 300 : 4000;
    std::uniform_int_distribution<int> pos(0, space);
    std::uniform_int_distribution<int> size(1, 150);
    std::vector<Rect> shots;
    for (int i = 0; i < n; ++i) {
      const int x = pos(rng);
      const int y = pos(rng);
      shots.push_back({x, y, x + size(rng), y + size(rng)});
    }
    const ShotStats stats = computeShotStats(shots);
    const double expected =
        stats.totalShotArea > 0
            ? static_cast<double>(bruteForceOverlap(shots)) /
                  static_cast<double>(stats.totalShotArea)
            : 0.0;
    ASSERT_EQ(stats.overlapFraction, expected)
        << "trial " << trial << " with " << n << " shots";
    ASSERT_EQ(pairwiseOverlapArea(shots), bruteForceOverlap(shots));
  }
}

TEST(ShotStatsTest, SweepHandlesTouchingAndNestedShots) {
  // Edge-touching pairs (zero-area intersections, prune boundary) and
  // full containment.
  const std::vector<Rect> shots{
      {0, 0, 100, 100}, {100, 0, 200, 100},  // share the x=100 edge
      {20, 20, 80, 80},                      // nested in the first
      {0, 100, 100, 200},                    // shares the y=100 edge
  };
  const ShotStats stats = computeShotStats(shots);
  const double expected = static_cast<double>(bruteForceOverlap(shots)) /
                          static_cast<double>(stats.totalShotArea);
  EXPECT_EQ(stats.overlapFraction, expected);
  EXPECT_DOUBLE_EQ(
      stats.overlapFraction,
      static_cast<double>(60 * 60) /
          static_cast<double>(stats.totalShotArea));
}

/// `n` random shots with corners in [lo, lo + span) and sides in
/// [1, side].
std::vector<Rect> randomShots(std::mt19937& rng, int n, std::int32_t lo,
                              std::int32_t span, std::int32_t side) {
  std::uniform_int_distribution<std::int32_t> pos(0, span - 1);
  std::uniform_int_distribution<std::int32_t> size(1, side);
  std::vector<Rect> shots;
  for (int i = 0; i < n; ++i) {
    const std::int32_t x = lo + pos(rng);
    const std::int32_t y = lo + pos(rng);
    shots.push_back({x, y, x + size(rng), y + size(rng)});
  }
  return shots;
}

TEST(ShotStatsTest, BucketedSweepNearTheInt32Limits) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::mt19937 rng(31);
  // Rows at both ends of int32 in one list: ~2^32 / 200 empty rows
  // between them.
  std::vector<Rect> shots = randomShots(rng, 300, kMin, 2000, 200);
  const std::vector<Rect> high = randomShots(rng, 300, kMax - 2200, 2000, 200);
  shots.insert(shots.end(), high.begin(), high.end());
  // Shots touching the limits themselves.
  shots.push_back({kMin, kMin, kMin + 50, kMin + 50});
  shots.push_back({kMin, kMin, kMin + 20, kMin + 80});
  shots.push_back({kMax - 50, kMax - 50, kMax, kMax});
  shots.push_back({kMax - 80, kMax - 20, kMax, kMax});
  EXPECT_EQ(pairwiseOverlapArea(shots), bruteForceOverlap(shots));
}

TEST(ShotStatsTest, BucketedSweepWithZeroHeightShots) {
  std::mt19937 rng(17);
  std::vector<Rect> shots = randomShots(rng, 200, 0, 1000, 80);
  for (int i = 0; i < 50; ++i) {
    // Zero-height and zero-width shots, some on the others' rows.
    const std::int32_t x = static_cast<std::int32_t>(rng() % 1000);
    const std::int32_t y = static_cast<std::int32_t>(rng() % 1000);
    shots.push_back({x, y, x + 40, y});
    shots.push_back({x, y, x, y + 40});
  }
  EXPECT_EQ(pairwiseOverlapArea(shots), bruteForceOverlap(shots));
  // A list of zero-height shots alone: no overlap at all.
  const std::vector<Rect> flat = {{0, 5, 100, 5}, {10, 5, 50, 5},
                                  {0, 6, 100, 6}};
  EXPECT_EQ(pairwiseOverlapArea(flat), 0);
}

TEST(ShotStatsTest, BucketedSweepWithOneTallShot) {
  std::mt19937 rng(23);
  std::vector<Rect> shots = randomShots(rng, 400, 0, 3000, 60);
  // One shot far taller than the rest sets the row height.
  shots.push_back({1000, -500, 1100, 4000});
  EXPECT_EQ(pairwiseOverlapArea(shots), bruteForceOverlap(shots));
}

TEST(ShotStatsTest, BucketedSweepOnTenThousandRandomShots) {
  std::mt19937 rng(29);
  const std::vector<Rect> shots = randomShots(rng, 10000, -20000, 40000, 400);
  EXPECT_EQ(pairwiseOverlapArea(shots), bruteForceOverlap(shots));
}

}  // namespace
}  // namespace mbf
