// Apriori candidate generation (the `ap_gen` of the paper's Algorithm 3):
// the F(k-1) x F(k-1) self-join followed by the monotonicity prune.
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

}  // namespace yafim::fim
