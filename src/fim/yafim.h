// YAFIM (Yet Another Frequent Itemset Mining): the paper's contribution --
// Apriori expressed on the RDD model so the transaction dataset is loaded
// from (simulated) HDFS once, cached in cluster memory, and re-scanned in
// memory on every level-wise iteration, with the candidate hash tree shared
// through broadcast variables.
//
// Phase I  (Algorithm 2): textFile -> flatMap(items) -> map((item, 1))
//                         -> reduceByKey(+) -> filter(>= MinSup)  => L1
// Phase II (Algorithm 3): Ck = ap_gen(L(k-1)); broadcast hash tree over Ck;
//                         Transactions.flatMap(subset(Ck, t))
//                         -> map((c, 1)) -> reduceByKey(+)
//                         -> filter(>= MinSup)                    => Lk
// The pass loop around both phases is fim/levelwise.h's, shared with MRApriori.
#pragma once

#include <string>

#include "engine/context.h"
#include "fim/candidate_gen.h"
#include "fim/checkpoint.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "fim/result.h"
#include "simfs/simfs.h"

namespace yafim::fim {

struct YafimOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  /// RDD partitions for the transactions dataset (0 = context default).
  u32 partitions = 0;

  /// Ablations (all default to the paper's design):
  /// cache the transactions RDD in memory across iterations; off models
  /// Spark recomputing from HDFS every pass.
  bool cache_transactions = true;
  /// count on the hash tree or the dense kernel; off scans every candidate
  /// row linearly, on the same shipped payload.
  bool use_hash_tree = true;

  /// How Phase II counts candidate hits (fim/hash_tree.h CountMode):
  /// kItemsetKey is the paper-faithful shuffle keyed on full itemsets over
  /// hash-tree probes, kCandidateId (the default) the dense arrays merged
  /// by sum_arrays_at_least(), which returns only the MinSup survivors.
  /// Both yield bit-identical FrequentItemsets; only the data structure
  /// and its pricing differ.
  CountMode count_mode = CountMode::kCandidateId;

  /// How each pass's candidates reach the workers (fim/hash_tree.h
  /// BroadcastMode, fim/count_core.h ship_batch). Every mode yields
  /// bit-identical FrequentItemsets -- a partitioned pass counts its
  /// first-item slices into the same batch-global dense cells.
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  /// Target range count of the partitioned store (0 = context
  /// default_partitions). Tests use 1 (one range) and more ranges than
  /// first items (one per item) to exercise the boundary cases.
  u32 broadcast_shards = 0;

  /// Shape of the hash trees built (fim/count_core.h CountCoreOptions).
  u32 branching = 0;  // 0 = auto (HashTree::default_branching)
  u32 leaf_capacity = 16;

  /// Extension (ours): Lin et al.'s pass combining (fim/candidate_gen.h)
  /// on the RDD side -- one cluster pass counts a batch of candidate
  /// levels, trading per-pass floors against speculative counting work.
  /// Results stay exact; SPC (the default) is the paper's design.
  PassCombining combining;

  /// Crash recovery (fim/checkpoint.h): when set, a snapshot of (Lk, pass
  /// stats, config fingerprint) is persisted after every completed pass,
  /// and mining first probes the store for the newest valid snapshot of
  /// the same dataset + configuration, resuming after it instead of
  /// restarting from pass 1. Not owned.
  CheckpointStore* checkpoint = nullptr;
  /// Abandon the run after snapshotting this pass (0 = run to completion).
  /// Deterministic stand-in for a mid-run crash in tests and examples; the
  /// returned run then holds only the completed passes.
  u32 stop_after_pass = 0;
};

/// Mine the dataset stored at `input_path` on `fs` (a serialized
/// TransactionDB). Cost is charged into ctx's SimReport; the returned run
/// carries per-pass simulated seconds under ctx's cluster.
MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const std::string& input_path,
                     const YafimOptions& options);

/// Convenience overload: stages `db` onto `fs` at a scratch path (write not
/// charged to the run -- the dataset pre-exists on HDFS in the paper's
/// setup), then mines it.
MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const TransactionDB& db, const YafimOptions& options);

}  // namespace yafim::fim
