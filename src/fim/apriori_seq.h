// Sequential (single-node) Apriori: Algorithm 1 of the paper, and the
// reference implementation every parallel miner is checked against. Also
// the baseline for the paper's notion of speedup ("how much faster a
// parallel algorithm is than a corresponding sequential algorithm").
#pragma once

#include "fim/dataset.h"
#include "fim/result.h"

namespace yafim::fim {

struct AprioriOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  /// Absolute support threshold; 0 derives it from min_support via
  /// min_count_ceil (fim/dataset.h). The two-phase miners (son, sampling)
  /// set this explicitly so their local thresholds are computed by the one
  /// shared ceil helper rather than re-rounded per chunk.
  u64 min_count = 0;
  /// Hash-tree tuning.
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;
};

/// Mine all frequent itemsets of `db`. The returned MiningRun's PassStats
/// carry candidate/frequent counts per level; sim_seconds is 0 (this miner
/// runs outside the simulated cluster).
MiningRun apriori_mine(const TransactionDB& db, const AprioriOptions& options);

}  // namespace yafim::fim
