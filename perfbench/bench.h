// The host benchmark of fim::yafim_mine: its workloads, the oracle
// accounting and one benchmark run (set-up, timed mines, traced replay).
// README.md in this directory gives each workload's reason and the layer ->
// end-to-end metric -> workload map.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "datagen/benchmarks.h"
#include "fim/result.h"

namespace perfbench {

using yafim::u32;
using yafim::u64;

struct Workload {
  const char* name;
  /// Why the workload exists: which layers it loads and which it leaves
  /// idle (the same sentence as in BENCHMARK.json and README.md).
  const char* why;
  yafim::datagen::BenchmarkDataset (*make)(double scale, u64 seed);
  double scale;
  double min_support;
  /// Executor memory and shuffle-buffer budget per node; 0 keeps the
  /// paper cluster's defaults (24 GiB, unbounded shuffle buffers).
  u64 executor_memory_bytes;
  u64 shuffle_buffer_bytes;
  /// 0: the run's seed goes to make_*. Otherwise make_* always gets this
  /// seed and the run's seed shuffles the row order: where the generator
  /// seed alone moves a workload's work by several percent (README.md),
  /// a run-to-run spread would measure the dataset, not the miner.
  u64 datagen_seed;
};

const std::vector<Workload>& workloads();
/// The result rendering every mine ends with: one FIMI-style line per
/// itemset, "i j k  (support)", in FrequentItemsets::sorted() order.
void render_fimi(const yafim::fim::FrequentItemsets& itemsets,
                 std::string& out);

/// Failure accounting shared by the timed loop and the replay: a mine
/// fails when it throws or its itemsets differ from the oracle's.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  /// Record one attempt; returns whether it was correct.
  bool record(const yafim::fim::FrequentItemsets* got,
              const yafim::fim::FrequentItemsets& oracle);
  double failed_frac() const {
    return attempted ? static_cast<double>(failed) / attempted : 0.0;
  }
};

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  /// How long the timed mines run, after set-up, oracle and warm-up.
  double seconds = 18.0;
  /// false: end-to-end metrics; true: per-layer metrics of a traced replay.
  bool trace = false;
  /// Where the replay's span log is written (empty: not written).
  std::string out_dir;
  /// Test hook: change one support in the oracle's result, so every mine
  /// must be reported as wrong.
  bool alter_oracle = false;
};

/// One benchmark run: `#`-prefixed notes, then the result line, on `out`.
/// Returns the process exit code: 0 only when every mine (and the replay)
/// matched the oracle; 2 for a refused build or bad options.
int run(const RunOptions& opt, std::FILE* out);

}  // namespace perfbench
