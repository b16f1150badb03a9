// Apriori candidate generation (the `ap_gen` of the paper's Algorithm 3):
// the F(k-1) x F(k-1) self-join and monotonicity prune, or the same rows by
// intersecting prefix classes (RDD-Eclat's prefix equivalence classes),
// whichever prices less; and the pass-combining rule (Lin, Lee & Hsueh
// 2012) that decides how many candidate levels one counting pass takes.
#pragma once

#include <optional>
#include <vector>

#include "fim/itemset.h"

namespace yafim::fim {

/// Generate the size-k candidate set Ck from the frequent (k-1)-itemsets,
/// flat in and flat out.
///
/// `prev` holds (k-1)-item rows in strictly ascending lexicographic order
/// (sorted and duplicate-free; checked in one linear pass). The result is
/// k-item rows in lexicographic order. For k == 2 this is all pairs of
/// frequent items. Two paths emit the same rows in the same order; work
/// units (engine/work.h) price the driver's ap_gen stage.
///
/// Join: the rows of one prefix group (equal first k-2 items) pair up, each
/// pair giving one k-candidate. Prune: a candidate survives only if each of
/// its k-2 (k-1)-subsets that is not a join parent is a row of `prev`,
/// looked up in an open-addressing table of row indices. Units are the
/// classic pairwise scan's: for row a in prefix group [g0, g1) of n rows,
/// (g1 - a - 1) join comparisons plus one more when g1 < n; for each joined
/// candidate at k > 2, one unit per subset probe in skip order 0..k-3 up to
/// and including the first miss, and 2 more (the join parents) when none
/// misses.
///
/// Prefix classes (k >= 3): the class S_Q of a (k-2)-prefix Q is the set of
/// last items of the rows that start with Q, one prefix group. Row P+x
/// extends to exactly the P+x+c with c > x in S_P and in S_{(P-p)+x} for
/// every p in P. Each class is a bitset over the ranks of prev's distinct
/// last items (read off a presence bitmap over their values), stored from
/// its smallest member's word to its largest's; S_{(P-p)+x} is found
/// through an open-addressing table of the class prefixes. Units: one per
/// class lookup, p in P's order up to and including the first miss (the
/// row then emits nothing); k-2 per word ANDed, from the word after x's
/// rank to S_P's last word, clipped to every other class's stored words;
/// one per candidate emitted. A row whose x is the largest of S_P costs
/// nothing.
///
/// The rule, per call: k == 2 takes the join. Otherwise the prefix-class
/// path runs unless prev's last items span 64 values per row or more (its
/// presence bitmap would take a word per row) or its bitsets would take
/// more than two words per row of `prev`. Its rows are kept when its units
/// are no more than a lower bound of the join's -- the join comparisons,
/// plus one probe per pruned pair, plus k per candidate; exact at k = 3 --
/// and the join runs and is charged otherwise. So no call costs more units
/// than the join alone.
///
/// Scratch memory besides the result is linear in |prev|: under 16 bytes
/// per row for the join's row table, and at most 68 per row on the
/// prefix-class path (16 for the bitsets, 16 for the last-item ranking, 16
/// for the class table, 20 for the per-row and per-class indices).
ItemsetRows apriori_gen_rows(const ItemsetRows& prev, u32 k);

/// apriori_gen_rows() over owning itemsets: `prev_frequent` need not be
/// sorted (it is sorted first when it is not); the result is sorted and
/// duplicate-free. Every itemset in `prev_frequent` must have size k-1.
std::vector<Itemset> apriori_gen(const std::vector<Itemset>& prev_frequent,
                                 u32 k);

namespace detail {

/// One generation path's candidates and the driver work units it prices.
struct Generated {
  ItemsetRows rows;
  u64 units = 0;
};

/// The join path alone, priced as above. `prev` as for apriori_gen_rows
/// (not checked); neither function adds work units or counters. Tests and
/// benches compare the paths through these.
Generated join_candidates(const ItemsetRows& prev, u32 k);

/// The prefix-class path alone, priced as above; nothing for k < 3 or when
/// the rule above declines it.
std::optional<Generated> prefix_class_candidates(const ItemsetRows& prev,
                                                 u32 k);

}  // namespace detail

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
