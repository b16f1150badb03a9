// MRApriori: the paper's baseline -- Li et al.'s PApriori, a k-phase
// parallel Apriori on Hadoop MapReduce. Every level-wise iteration is a
// fresh MapReduce job that pays job startup, re-reads the transaction
// dataset from HDFS, ships the candidate set to mappers through the
// distributed cache, and writes the frequent itemsets back to HDFS, which
// the driver then reads to generate the next candidates.
//
// The paper notes all MapReduce implementations of Apriori share this
// per-iteration I/O structure, so one baseline represents the class. Lin
// et al.'s SPC/FPC/DPC are this driver with one, a fixed number, or a
// budgeted number of candidate levels per job (`combining`). The driver is
// the level-wise loop YAFIM runs too (fim/levelwise.h).
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

struct MrAprioriOptions {
  /// Relative minimum support threshold in (0, 1].
  double min_support = 0.1;
  /// Map / reduce task counts (0 = substrate defaults: one mapper per
  /// simulated core, one reducer per node).
  u32 num_mappers = 0;
  u32 num_reducers = 0;
  /// Counting mode and candidate shipping of jobs k >= 2, with
  /// YafimOptions' defaults so YAFIM-vs-MRApriori stays apples-to-apples;
  /// the distributed cache localizes what a broadcast would ship, and hash
  /// trees take HashTree's default shape. Under kCandidateId each mapper
  /// chooses its kernel row by row as a YAFIM task does and the reducers
  /// map surviving ids back through the batch's rows. A batch too large
  /// for the tightest executor runs as one id-keyed sub-job per range of
  /// first items that fits it (split_first_items), each localizing only
  /// its slices' kernel, at the price of re-reading the input per sub-job.
  /// All modes yield identical itemsets.
  CountMode count_mode = CountMode::kCandidateId;
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  /// Scratch directory on the DFS for per-iteration outputs.
  std::string work_dir = "hdfs://mrapriori";
  /// Stop after this many levels (0 = run to completion). BigFIM uses this
  /// to run only the first k Apriori levels before switching to Eclat.
  u32 max_levels = 0;
  /// Candidate levels per job (fim/candidate_gen.h): SPC, the default, is
  /// one job per level; FPC and DPC batch levels into fewer jobs, counting
  /// speculative candidates to save job startups.
  PassCombining combining;

  /// Crash recovery (fim/checkpoint.h): same contract as YafimOptions --
  /// snapshot after every completed job, resume from the newest valid
  /// snapshot of the same dataset + configuration. Not owned.
  CheckpointStore* checkpoint = nullptr;
  /// Abandon the run after snapshotting this pass (0 = run to completion);
  /// deterministic stand-in for a mid-run crash.
  u32 stop_after_pass = 0;
};

/// Mine the dataset stored at `input_path` on `fs`. Cost is charged into
/// ctx's SimReport (job startup + per-job DFS I/O + JVM-per-task phases).
MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const MrAprioriOptions& options);

/// Convenience overload staging `db` onto `fs` first.
MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const MrAprioriOptions& options);

}  // namespace yafim::fim
