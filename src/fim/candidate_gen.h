// Apriori candidate generation (the `ap_gen` of the paper's Algorithm 3):
// the F(k-1) x F(k-1) self-join followed by the monotonicity prune, and the
// pass-combining rule (Lin, Lee & Hsueh 2012) that decides how many
// candidate levels one counting pass takes.
#pragma once

#include <vector>

#include "fim/itemset.h"

namespace yafim::fim {

/// Generate the size-k candidate set Ck from the frequent (k-1)-itemsets,
/// flat in and flat out.
///
/// `prev` holds (k-1)-item rows in strictly ascending lexicographic order
/// (sorted and duplicate-free; checked in one linear pass). The result is
/// k-item rows in lexicographic order. For k == 2 this is all pairs of
/// frequent items.
///
/// Join: the rows of one prefix group (equal first k-2 items) pair up, each
/// pair giving one k-candidate. Prune: a candidate survives only if each of
/// its k-2 (k-1)-subsets that is not a join parent is a row of `prev`,
/// looked up in an open-addressing table of row indices.
///
/// Work units (engine/work.h) -- what prices the driver's ap_gen stage --
/// equal the classic pairwise scan's: for row a in prefix group [g0, g1) of
/// n rows, (g1 - a - 1) join comparisons plus one more when g1 < n; for each
/// joined candidate at k > 2, one unit per subset probe in skip order 0..k-3
/// up to and including the first miss, and 2 more (the join parents) when
/// none misses.
ItemsetRows apriori_gen_rows(const ItemsetRows& prev, u32 k);

/// apriori_gen_rows() over owning itemsets: `prev_frequent` need not be
/// sorted (it is sorted first when it is not); the result is sorted and
/// duplicate-free. Every itemset in `prev_frequent` must have size k-1.
std::vector<Itemset> apriori_gen(const std::vector<Itemset>& prev_frequent,
                                 u32 k);

/// How many candidate levels one counting pass (a YAFIM cluster pass or a
/// MapReduce job) takes. Lin et al.'s three MapReduce adaptations of
/// Apriori differ only in this:
///   SPC -- single pass: one level per pass (the paper's design, and
///          MRApriori's k-phase shape);
///   FPC -- fixed passes combined: levels 2 and 3 alone (candidate counts
///          peak there), then `fixed_passes` levels per pass;
///   DPC -- dynamic passes combined: levels batched greedily while the
///          summed candidate count stays within a budget.
/// Levels after a pass's first are generated from the previous level's
/// *candidates*, a superset of the true Ck, so results stay exact; fewer
/// passes trade per-pass floors against speculative counting work.
enum class CombineStrategy { kSinglePass, kFixedPasses, kDynamic };

struct PassCombining {
  CombineStrategy strategy = CombineStrategy::kSinglePass;
  /// FPC: candidate levels per pass from level 4 on.
  u32 fixed_passes = 3;
  /// DPC: a pass stops growing before its summed candidate count would
  /// exceed this, and never joins a speculative level larger than it.
  u64 dynamic_candidate_budget = 20000;
};

/// The candidate levels k, k+1, ... that one pass counts under
/// `combining`: level k from the verified (k-1)-itemsets `frequent`
/// (sorted, duplicate-free rows), each later level from the level before
/// it. Never goes past `last_level` (0 = no limit) and stops at the first
/// empty level, so the result is empty when Ck is. Work units are
/// apriori_gen_rows' own.
std::vector<ItemsetRows> candidate_levels(const ItemsetRows& frequent, u32 k,
                                          const PassCombining& combining,
                                          u32 last_level = 0);

/// A checkpoint-fingerprint word for `combining`: 0 for SPC, so snapshots
/// of single-pass runs keep their fingerprints.
u64 pass_combining_fingerprint(const PassCombining& combining);

}  // namespace yafim::fim
