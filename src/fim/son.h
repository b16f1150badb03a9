// SON / PSON (Savasere-Omiecinski-Navathe, parallelised a la Xiao et al.'s
// PSON): the classic *two-job* frequent-itemset algorithm -- the
// "one-phase" family the paper's related work contrasts with k-phase
// MRApriori.
//
//   Job 1 (local mining):  every mapper runs a complete in-memory Apriori
//     over its input split at the same *relative* threshold and emits its
//     locally frequent itemsets. By the SON property, every globally
//     frequent itemset is locally frequent in at least one split, so the
//     union is a complete (if overcomplete) candidate set.
//   Job 2 (global count):  candidates are shipped to mappers via the
//     distributed cache; a counting pass over the data computes exact
//     global supports, and reducers threshold at MinSup.
//
// Two jobs total, independent of the lattice depth -- trading Apriori's
// per-level jobs for potentially large candidate unions (the "memory
// overflow ... for large data sets" caveat in the paper §III).
#pragma once

#include <string>

#include "engine/context.h"
#include "fim/dataset.h"
#include "fim/result.h"
#include "simfs/simfs.h"

namespace yafim::fim {

struct SonOptions {
  double min_support = 0.1;
  u32 num_mappers = 0;
  u32 num_reducers = 0;
  std::string work_dir = "hdfs://son";
};

struct SonRun {
  MiningRun run;
  /// Size of the candidate union produced by the local-mining job.
  u64 candidate_union = 0;
  /// Candidates that were locally but not globally frequent (SON's
  /// overcounting cost; 0 would mean perfectly homogeneous splits).
  u64 false_candidates = 0;
};

/// Mine with SON (always exact). `run.passes` has two entries: the local
/// mining job and the global counting job.
SonRun son_mine(engine::Context& ctx, simfs::SimFS& fs,
                const std::string& input_path, const SonOptions& options);

/// Convenience overload staging `db` onto `fs` first.
SonRun son_mine(engine::Context& ctx, simfs::SimFS& fs,
                const TransactionDB& db, const SonOptions& options);

}  // namespace yafim::fim
