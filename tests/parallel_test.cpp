// Tests for the parallel execution layer: the work-stealing pool, the
// chunked parallelFor, and — most importantly — the determinism contract:
// every parallel path must produce byte-identical results for any thread
// count. FP addition is not associative, so these tests compare doubles
// with exact ==, not tolerances.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "ebeam/proximity_model.h"
#include "ebeam/intensity_map.h"
#include "fracture/problem.h"
#include "fracture/verifier.h"
#include "mdp/layout.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace mbf {
namespace {

// --- Lth memo -----------------------------------------------------------

TEST(LthMemoTest, ConcurrentFirstCallsAgreeBitwise) {
  // Every thread asks for the same never-computed Lth values at once;
  // all must get the same bits, and different models different values.
  const std::vector<double> gammas = {1.25, 2.0, 3.5};
  std::vector<std::vector<double>> seen(8);
  std::vector<std::thread> threads;
  for (std::vector<double>& out : seen) {
    threads.emplace_back([&gammas, &out] {
      const ProximityModel model(6.25, 0.5);
      for (const double g : gammas) out.push_back(model.computeLth(g));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<double>& out : seen) {
    ASSERT_EQ(out.size(), gammas.size());
    for (std::size_t i = 0; i < gammas.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(seen[0][i]));
    }
  }
  EXPECT_LT(seen[0][0], seen[0][1]);
  EXPECT_NE(ProximityModel(5.0, 0.5).computeLth(2.0), seen[0][1]);
  EXPECT_NE(ProximityModel(6.25, 0.5, 0.2, 20.0).computeLth(2.0), seen[0][1]);
}

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  const int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    if (!pool.tryRunOne()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, TryRunOneDrainsFromNonWorkerThread) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  // The calling thread helps; combined with the worker, every task runs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    if (!pool.tryRunOne()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 8);
  EXPECT_FALSE(pool.tryRunOne());  // queues drained
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolveThreads(0), 1);
  EXPECT_EQ(ThreadPool::resolveThreads(1), 1);
  EXPECT_EQ(ThreadPool::resolveThreads(6), 6);
  EXPECT_EQ(ThreadPool::resolveThreads(-3), 1);
}

// --- parallelFor --------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallelFor(0, n, 4, 7, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  int calls = 0;
  parallelFor(5, 5, 8, 1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(0, 3, 8, 16, [&](int) { ++calls; });  // one chunk: serial
  EXPECT_EQ(calls, 3);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  std::vector<std::atomic<int>> hits(16 * 64);
  parallelFor(0, 16, 4, 1, [&](int outer) {
    parallelFor(0, 64, 4, 4, [&](int inner) {
      hits[static_cast<std::size_t>(outer * 64 + inner)].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

// --- IntensityMap bulk application --------------------------------------

std::vector<Rect> randomShots(std::uint32_t seed, int count, int span) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pos(0, span);
  std::uniform_int_distribution<int> len(4, 40);
  std::vector<Rect> shots;
  shots.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    shots.push_back({x0, y0, x0 + len(rng), y0 + len(rng)});
  }
  return shots;
}

TEST(ParallelIntensityTest, BulkSetShotsMatchesSequentialAddBitwise) {
  const ProximityModel model(6.25);
  const std::vector<Rect> shots = randomShots(42, 60, 150);

  IntensityMap sequential(model, {-20, -20}, 230, 230);
  for (const Rect& s : shots) sequential.addShot(s);

  for (const int threads : {1, 2, 4}) {
    IntensityMap bulk(model, {-20, -20}, 230, 230);
    bulk.setShots(shots, threads);
    ASSERT_EQ(bulk.grid().data(), sequential.grid().data())
        << "threads=" << threads;
  }
}

// --- Verifier scan determinism ------------------------------------------

TEST(ParallelVerifierTest, ViolationsBitwiseEqualAcrossThreadCounts) {
  const Polygon shape = makeOpcShape(opcSuiteConfigs()[4]);

  FractureParams serialParams;
  serialParams.numThreads = 1;
  const Problem serialProblem(shape, serialParams);
  Verifier serialVerifier(serialProblem);
  const std::vector<Rect> shots = randomShots(7, 25, 100);
  serialVerifier.setShots(shots);
  const Violations serial = serialVerifier.violations();

  for (const int threads : {2, 4, 8}) {
    FractureParams params;
    params.numThreads = threads;
    const Problem problem(shape, params);
    Verifier verifier(problem);
    verifier.setShots(shots);
    const Violations v = verifier.violations();
    EXPECT_EQ(v.failOn, serial.failOn) << "threads=" << threads;
    EXPECT_EQ(v.failOff, serial.failOff) << "threads=" << threads;
    // Exact ==: per-row partials fold in row order on every path.
    EXPECT_EQ(v.cost, serial.cost) << "threads=" << threads;
  }
}

// --- Violation ledger property test -------------------------------------
//
// The ledger's contract: after ANY interleaving of add/remove/replace
// mutations, the lazily refreshed per-row ledger folds to exactly the
// same Violations a fresh full-grid scan produces — bit for bit, at
// every thread count — and the totals agree across thread counts.

TEST(ParallelVerifierTest, LedgerEqualsFreshScanOverRandomMutationCycles) {
  const Polygon shape = makeOpcShape(opcSuiteConfigs()[2]);

  std::vector<std::unique_ptr<Problem>> problems;
  std::vector<std::unique_ptr<Verifier>> verifiers;
  const int threadCounts[] = {1, 4, 8};
  for (const int threads : threadCounts) {
    FractureParams params;
    params.numThreads = threads;
    problems.push_back(std::make_unique<Problem>(shape, params));
    verifiers.push_back(std::make_unique<Verifier>(*problems.back()));
  }

  std::mt19937 rng(1729);
  std::uniform_int_distribution<int> pos(-10, 90);
  std::uniform_int_distribution<int> len(4, 40);
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> jitter(-2, 2);
  const auto randomRect = [&]() -> Rect {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    return {x0, y0, x0 + len(rng), y0 + len(rng)};
  };

  std::vector<Rect> shots = {randomRect(), randomRect(), randomRect()};
  for (auto& v : verifiers) v->setShots(shots);

  const int kCycles = 10000;
  for (int step = 0; step < kCycles; ++step) {
    switch (shots.size() < 2 ? 0 : op(rng)) {
      case 0: {  // add
        const Rect s = randomRect();
        shots.push_back(s);
        for (auto& v : verifiers) v->addShot(s);
        break;
      }
      case 1: {  // remove
        const std::size_t i = static_cast<std::size_t>(
            std::uniform_int_distribution<int>(
                0, static_cast<int>(shots.size()) - 1)(rng));
        shots.erase(shots.begin() + static_cast<std::ptrdiff_t>(i));
        for (auto& v : verifiers) v->removeShot(i);
        break;
      }
      default: {  // replace (the refiner's edge-move pattern)
        const std::size_t i = static_cast<std::size_t>(
            std::uniform_int_distribution<int>(
                0, static_cast<int>(shots.size()) - 1)(rng));
        Rect r = shots[i];
        r.x0 += jitter(rng);
        r.y1 += jitter(rng);
        if (r.empty()) r = randomRect();
        shots[i] = r;
        for (auto& v : verifiers) v->replaceShot(i, r);
        break;
      }
    }
    // Spot-check mid-stream (every mutation would be O(cycles * grid));
    // the final check below covers the fully mixed history.
    if (step % 997 == 0) {
      const Violations reference = verifiers[0]->violations();
      for (std::size_t k = 0; k < verifiers.size(); ++k) {
        EXPECT_EQ(verifiers[k]->violations(), verifiers[k]->scanViolations())
            << "step " << step << ", threads=" << threadCounts[k];
        EXPECT_EQ(verifiers[k]->violations(), reference)
            << "step " << step << ", threads=" << threadCounts[k];
        // Also the interesting-band bits against a fresh classification.
        EXPECT_TRUE(verifiers[k]->ledgerMatchesScan())
            << "step " << step << ", threads=" << threadCounts[k];
      }
    }
  }

  const Violations reference = verifiers[0]->violations();
  for (std::size_t k = 0; k < verifiers.size(); ++k) {
    // Exact ==: Violations comparison is bitwise on the cost double.
    EXPECT_EQ(verifiers[k]->violations(), verifiers[k]->scanViolations())
        << "threads=" << threadCounts[k];
    EXPECT_EQ(verifiers[k]->violations(), reference)
        << "threads=" << threadCounts[k];
    EXPECT_TRUE(verifiers[k]->ledgerMatchesScan());
  }
}

// --- End-to-end layout determinism (the issue's acceptance test) --------

TEST(ParallelLayoutTest, FractureLayoutParallelIsByteIdentical) {
  // OPC clips 0-5 and ILT clips 0-2 (curvilinear, refine-dominated).
  std::vector<LayoutShape> shapes;
  const std::vector<OpcSynthConfig> suite = opcSuiteConfigs();
  for (std::size_t i = 0; i < suite.size() && i < 6; ++i) {
    LayoutShape shape;
    shape.rings.push_back(makeOpcShape(suite[i]));
    shapes.push_back(std::move(shape));
  }
  const std::vector<IltSynthConfig> iltSuite = iltSuiteConfigs();
  for (std::size_t i = 0; i < 3; ++i) {
    LayoutShape shape;
    shape.rings.push_back(makeIltShape(iltSuite[i]));
    shapes.push_back(std::move(shape));
  }

  BatchConfig serialConfig;
  serialConfig.threads = 1;
  serialConfig.params.numThreads = 1;
  const BatchResult serial = fractureLayout(shapes, serialConfig);
  ASSERT_EQ(serial.solutions.size(), shapes.size());

  for (const int threads : {2, 8}) {
    BatchConfig config;
    config.threads = threads;
    config.params.numThreads = threads;
    const BatchResult result = fractureLayout(shapes, config);
    ASSERT_EQ(result.solutions.size(), shapes.size());
    EXPECT_EQ(result.totalShots, serial.totalShots);
    EXPECT_EQ(result.totalFailingPixels, serial.totalFailingPixels);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      // Byte-identical shot lists, not merely equivalent ones.
      EXPECT_EQ(result.solutions[i].shots, serial.solutions[i].shots)
          << "shape " << i << ", threads=" << threads;
      // And identical Violations when re-evaluated serially.
      FractureParams evalParams;
      const Problem problem(shapes[i].rings, evalParams);
      const Violations a =
          evaluateShots(problem, serial.solutions[i].shots);
      const Violations b =
          evaluateShots(problem, result.solutions[i].shots);
      EXPECT_EQ(a.failOn, b.failOn);
      EXPECT_EQ(a.failOff, b.failOff);
      EXPECT_EQ(a.cost, b.cost);
    }
  }
}

}  // namespace
}  // namespace mbf
