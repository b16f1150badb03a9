// Core frequent-itemset-mining value types.
//
// Following the paper's formulation: I = {i1..in} is the item universe, a
// transaction T = (tid, X) has X ⊆ I, and sup(Y) = |{tid : Y ⊆ X}|.
// Items are dense u32 ids; itemsets and transactions are canonically sorted,
// duplicate-free vectors, which makes subset tests a linear merge and
// lexicographic order the natural candidate-generation order.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace yafim::fim {

using Item = u32;
using Itemset = std::vector<Item>;
using Transaction = std::vector<Item>;

/// True when `v` is sorted ascending with no duplicates (canonical form).
bool is_canonical(const Itemset& v);

/// Sort + dedupe into canonical form.
void canonicalize(Itemset& v);

/// Subset test by linear merge; both arguments must be canonical.
bool contains_all(const Transaction& t, const Itemset& s);

/// "{3, 17, 42}" -- for logs, examples, and test failure messages.
std::string to_string(const Itemset& s);

/// Deterministic hash for use as an unordered_map key and as the shuffle
/// partitioner (must be stable across runs -- do NOT replace with
/// std::hash, which libstdc++ does not guarantee stable for this purpose).
struct ItemsetHash {
  size_t operator()(const Itemset& s) const;
};

struct ItemsetEq {
  bool operator()(const Itemset& a, const Itemset& b) const { return a == b; }
};

/// Equal-size canonical itemsets stored row after row in one flat array:
/// row i is items[i*width, (i+1)*width). The driver's candidate form from
/// apriori_gen_rows() to the counting kernels -- no allocation per itemset.
struct ItemsetRows {
  u32 width = 0;
  std::vector<Item> items;

  size_t size() const { return width == 0 ? 0 : items.size() / width; }
  bool empty() const { return items.empty(); }
  const Item* row(size_t i) const { return items.data() + i * width; }
  Itemset itemset(size_t i) const { return Itemset(row(i), row(i) + width); }
};

/// One candidate level as the counting kernels read it, without a copy: a
/// range of consecutive rows of a CandidateBatch level or of a HashTree,
/// and the batch-global id of its first row (row ci counts into cell
/// id_offset + ci). A whole level is one range; a shard of the partitioned
/// store is a slice of it.
struct LevelView {
  const Item* first = nullptr;  ///< the range's first row
  u32 width = 0;
  u32 count = 0;
  u64 id_offset = 0;

  /// Every row of `rows`, row 0 with batch-global id `id_offset`.
  static LevelView of(const ItemsetRows& rows, u64 id_offset) {
    return {rows.items.data(), rows.width, static_cast<u32>(rows.size()),
            id_offset};
  }
  u32 k() const { return width; }
  u32 size() const { return count; }
  /// The rows' items, row after row.
  std::span<const Item> items() const {
    return {first, size_t{count} * width};
  }
  const Item* row(u32 ci) const { return first + size_t{ci} * width; }
  Itemset itemset(u32 ci) const { return Itemset(row(ci), row(ci) + width); }
  /// Rows [begin, end), keeping their batch-global ids.
  LevelView slice(u32 begin, u32 end) const {
    return {row(begin), width, end - begin, id_offset + begin};
  }
};

/// Flatten `sets` in their order; all must have the same non-zero size.
ItemsetRows to_rows(const std::vector<Itemset>& sets);

/// to_rows() in lexicographic row order: sorts a copy only when `sets` is
/// not sorted already.
ItemsetRows to_sorted_rows(const std::vector<Itemset>& sets);

/// Every row materialized as an owning Itemset.
std::vector<Itemset> to_itemsets(const ItemsetRows& rows);

}  // namespace yafim::fim
