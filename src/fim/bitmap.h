// Vertical bitmap index: the kernel a dense Phase II task switches to
// (fim/count_core.h count_rows).
//
// The data-structure-perspective survey (arXiv 1908.01338) observes that
// the candidate store, not the level-wise algorithm, dominates Apriori's
// Phase II cost: walking every transaction through a hash tree or a
// candidate trie (the dense tasks' per-row kernel) re-derives containment
// per transaction. The vertical
// family (Eclat, fim/tidlist_mining.h) inverts the layout instead -- one
// tid-list per item -- and support becomes set intersection. A bitmap is
// the dense form of that tid-list: bit t of item i's row is set iff
// transaction t (partition-local tid) contains i, so
//
//   sup(c) = popcount(AND of the rows of c's items)
//
// runs word-parallel over contiguous memory with no per-transaction
// branching at all. A task indexes the rows it has not walked, over the
// pass's candidate items only; candidates are read straight out of their
// level's flat rows (fim/itemset.h LevelView), so the inner loop is pure
// pointer-free streaming: k row pointers, one AND chain, one popcount per
// word.
#pragma once

#include <span>
#include <vector>

#include "engine/work.h"
#include "fim/itemset.h"
#include "obs/metrics.h"

namespace yafim::fim {

/// Sim-cost scaling for word-parallel bitmap work: one engine work unit
/// (~one 500 ns tuple-op under the calibrated cost model, DESIGN.md §5)
/// covers this many 64-bit AND+popcount steps. A fused AND+popcount over
/// cache-resident words retires in ~1 ns, so 64 word-ops per tuple-op is a
/// conservative (cost-inflating) exchange rate: count_rows switches to the
/// bitmap only where it undercuts the row walk under this price.
constexpr u64 kBitmapWordsPerWorkUnit = 64;

/// AND `k` equal-length word rows together and return the total popcount.
/// `rows` holds k non-null pointers to `nwords`-word runs.
u64 and_popcount(const u64* const* rows, u32 k, u32 nwords);

/// Vertical bitmap index over a run of transactions: one bit row per
/// indexed item, all rows living in a single contiguous word arena.
class VerticalBitmapIndex {
 public:
  /// Index only `items` (ascending, distinct): one row each, all-zero for
  /// an item no transaction contains; other items are skipped. The arena
  /// is exactly items.size() x ceil(transactions/64) words. Transactions
  /// must be canonical (fim/itemset.h); tid = position in `transactions`.
  VerticalBitmapIndex(std::span<const Transaction> transactions,
                      std::vector<Item> items);

  /// Work units a build charges: one per item occurrence read plus the
  /// zero-filled arena of `num_items` rows at the word exchange rate.
  static u64 build_units(u64 occurrences, u64 num_items,
                         u64 num_transactions);
  /// Work units count_candidates(level, ...) charges on an index over
  /// `num_transactions` transactions.
  static u64 count_units(const LevelView& level, u64 num_transactions);

  u32 num_transactions() const { return num_transactions_; }
  u32 words_per_row() const { return words_per_row_; }
  u32 num_items() const { return static_cast<u32>(items_.size()); }

  /// Arena footprint in bytes (rows + slot lookup), the quantity the
  /// obs bitmap.index_bytes counter accumulates.
  u64 bytes() const;

  /// Word row for `item`, or nullptr when it is not indexed.
  const u64* row(Item item) const {
    const u32 slot = slot_of(item);
    return slot == kNoSlot ? nullptr : words_.data() + u64{slot} * words_per_row_;
  }

  /// Support of a k-item candidate within this partition: popcount of the
  /// AND of its item rows (0 as soon as any item is absent). `items` must
  /// point at k >= 1 canonically sorted items.
  u64 support(const Item* items, u32 k) const;

  /// Add every candidate of `level` into its batch-global cell
  /// cells[level.id_offset + ci], charging engine work (the
  /// kBitmapWordsPerWorkUnit exchange rate) and the obs bitmap.* counters
  /// in one batched flush.
  void count_candidates(const LevelView& level, u64* cells) const;

 private:
  static constexpr u32 kNoSlot = 0xffffffffu;
  /// Items at or above this id fall back to the sparse slot map; below it
  /// the dense direct-indexed table is used (all shipped datasets have
  /// dense small ids, so the fallback exists only for pathological inputs).
  static constexpr u32 kDenseSlotLimit = 1u << 20;

  u32 slot_of(Item item) const;

  u32 num_transactions_ = 0;
  u32 words_per_row_ = 0;
  std::vector<Item> items_;       ///< distinct items, ascending (slot order)
  std::vector<u32> dense_slots_;  ///< item -> slot for item < dense limit
  std::vector<std::pair<Item, u32>> sparse_slots_;  ///< sorted, rare ids
  std::vector<u64> words_;        ///< row arena: slot s at [s*wpr, (s+1)*wpr)
};

}  // namespace yafim::fim
