// Journal overhead: what does the write-ahead result journal (DESIGN.md
// section 14) cost on top of a plain batch run, per fsync policy? The
// journal's durability argument only holds if kNone is effectively free
// (one buffered write() per shape) — this table is the receipt. Also
// times the recovery path: full-journal replay vs recomputing the batch.
// The layout runs as a flat plan (one cell, so one record, per shape).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "io/table.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"

int main() {
  using namespace mbf;

  std::cout << "=== Journal overhead: plain vs journaled batch runs ===\n"
            << "(same layout and params; overhead = journaled wall / plain "
               "wall)\n\n";

  std::vector<LayoutShape> shapes;
  for (int i = 0; i < 24; ++i) {
    IltSynthConfig cfg;
    cfg.seed = 4200 + static_cast<unsigned>(i);
    LayoutShape s;
    s.rings.push_back(makeIltShape(cfg));
    shapes.push_back(std::move(s));
  }
  const std::string journalPath = "bench_journal_overhead.tmp";
  HierPlan plan;
  const Status planned = planFlatLayout(shapes, BatchConfig{}, plan);
  if (!planned.ok()) {
    std::cerr << "planFlatLayout: " << planned.str() << "\n";
    return 1;
  }

  Table table({"threads", "plain s", "journal s", "overhead",
               "fsync-each s", "overhead", "replay s"});
  for (const int threads : {1, 4}) {
    BatchConfig config;
    config.threads = threads;

    const auto t0 = std::chrono::steady_clock::now();
    const BatchResult plain = fractureLayout(shapes, config);
    const double plainSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    double journalSec[2] = {0.0, 0.0};
    const JournalFsync policies[2] = {JournalFsync::kNone,
                                      JournalFsync::kEachRecord};
    for (int p = 0; p < 2; ++p) {
      HierOptions options;
      options.journalPath = journalPath;
      options.fsync = policies[p];
      HierarchicalResult result;
      const auto t1 = std::chrono::steady_clock::now();
      const Status st = fracturePlan(plan, config, options, result);
      journalSec[p] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
              .count();
      if (!st.ok() || result.batch.totalShots != plain.totalShots) {
        std::cerr << "journaled run diverged: " << st.str() << "\n";
        return 1;
      }
    }

    // Recovery: replay the (complete) journal instead of recomputing.
    HierOptions replayOptions;
    replayOptions.journalPath = journalPath;
    replayOptions.resume = true;
    HierarchicalResult replayed;
    RunCounters counters;
    const auto t2 = std::chrono::steady_clock::now();
    const Status st =
        fracturePlan(plan, config, replayOptions, replayed, &counters);
    const double replaySec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t2)
            .count();
    if (!st.ok() || counters.freshShapes != 0 ||
        replayed.batch.totalShots != plain.totalShots) {
      std::cerr << "replay diverged: " << st.str() << "\n";
      return 1;
    }

    table.addRow({Table::fmt(threads), Table::fmt(plainSec, 3),
                  Table::fmt(journalSec[0], 3),
                  Table::fmt(journalSec[0] / plainSec, 2),
                  Table::fmt(journalSec[1], 3),
                  Table::fmt(journalSec[1] / plainSec, 2),
                  Table::fmt(replaySec, 3)});
  }
  table.print(std::cout);
  std::remove(journalPath.c_str());
  std::remove((journalPath + ".sha256").c_str());
  return 0;
}
