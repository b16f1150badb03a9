#include "fim/bitmap.h"

#include <algorithm>
#include <bit>

namespace yafim::fim {

u64 and_popcount(const u64* const* rows, u32 k, u32 nwords) {
  u64 sum = 0;
  for (u32 w = 0; w < nwords; ++w) {
    u64 word = rows[0][w];
    for (u32 i = 1; i < k; ++i) word &= rows[i][w];
    sum += static_cast<u64>(std::popcount(word));
  }
  return sum;
}

VerticalBitmapIndex::VerticalBitmapIndex(
    std::span<const Transaction> transactions, std::vector<Item> items)
    : num_transactions_(static_cast<u32>(transactions.size())),
      words_per_row_(static_cast<u32>((transactions.size() + 63) / 64)),
      items_(std::move(items)) {
  // Slots follow the ascending item order, so the arena layout is
  // deterministic.
  Item max_dense = 0;
  for (Item i : items_) {
    if (i < kDenseSlotLimit) max_dense = std::max(max_dense, i);
  }
  bool any_dense = false;
  for (u32 slot = 0; slot < items_.size(); ++slot) {
    const Item item = items_[slot];
    if (item < kDenseSlotLimit) {
      if (!any_dense) {
        dense_slots_.assign(size_t{max_dense} + 1, kNoSlot);
        any_dense = true;
      }
      dense_slots_[item] = slot;
    } else {
      sparse_slots_.emplace_back(item, slot);  // items_ sorted => sorted too
    }
  }

  // Set bit `tid` in each indexed item's row.
  words_.assign(u64{items_.size()} * words_per_row_, 0);
  u64 occurrences = 0;
  for (u32 tid = 0; tid < transactions.size(); ++tid) {
    occurrences += transactions[tid].size();
    for (Item i : transactions[tid]) {
      const u32 slot = slot_of(i);
      if (slot == kNoSlot) continue;
      u64* item_row = words_.data() + u64{slot} * words_per_row_;
      item_row[tid >> 6] |= u64{1} << (tid & 63);
    }
  }

  // Building touches every item occurrence once (same unit as parsing) plus
  // the zero-fill of the arena at the word exchange rate.
  engine::work::add(
      build_units(occurrences, items_.size(), num_transactions_));
  obs::count(obs::CounterId::kBitmapIndexBytes, bytes());
}

u64 VerticalBitmapIndex::build_units(u64 occurrences, u64 num_items,
                                     u64 num_transactions) {
  const u64 words_per_row = (num_transactions + 63) / 64;
  return occurrences + num_items * words_per_row / kBitmapWordsPerWorkUnit;
}

u64 VerticalBitmapIndex::count_units(const LevelView& level,
                                     u64 num_transactions) {
  const u64 words_per_row = (num_transactions + 63) / 64;
  const u64 n = level.size();
  // and_words + popcounts of count_candidates: k + 1 words per row.
  return n +
         n * (level.k() + u64{1}) * words_per_row / kBitmapWordsPerWorkUnit;
}

u32 VerticalBitmapIndex::slot_of(Item item) const {
  if (item < kDenseSlotLimit) {
    return item < dense_slots_.size() ? dense_slots_[item] : kNoSlot;
  }
  const auto it = std::lower_bound(
      sparse_slots_.begin(), sparse_slots_.end(), item,
      [](const std::pair<Item, u32>& e, Item i) { return e.first < i; });
  if (it == sparse_slots_.end() || it->first != item) return kNoSlot;
  return it->second;
}

u64 VerticalBitmapIndex::bytes() const {
  return words_.size() * sizeof(u64) + items_.size() * sizeof(Item) +
         dense_slots_.size() * sizeof(u32) +
         sparse_slots_.size() * sizeof(std::pair<Item, u32>);
}

u64 VerticalBitmapIndex::support(const Item* items, u32 k) const {
  // k is small (mining depth); a fixed stack array keeps this allocation-free.
  constexpr u32 kMaxK = 64;
  const u64* rows[kMaxK];
  YAFIM_CHECK(k >= 1 && k <= kMaxK, "candidate size out of range");
  for (u32 i = 0; i < k; ++i) {
    rows[i] = row(items[i]);
    if (rows[i] == nullptr) return 0;
  }
  return and_popcount(rows, k, words_per_row_);
}

void VerticalBitmapIndex::count_candidates(const LevelView& level,
                                           u64* cells) const {
  const u32 n = level.size();
  if (n == 0) return;
  const u32 k = level.k();
  u64* level_cells = cells + level.id_offset;
  for (u32 ci = 0; ci < n; ++ci) level_cells[ci] += support(level.row(ci), k);
  // The absent-item early-out makes the true touched-word count
  // data-dependent; charging the full k words per candidate row keeps the
  // sim price an upper bound and deterministic either way.
  engine::work::add(count_units(level, num_transactions_));
  if (obs::enabled()) {
    obs::count(obs::CounterId::kBitmapAndWords, u64{n} * k * words_per_row_);
    obs::count(obs::CounterId::kBitmapPopcounts, u64{n} * words_per_row_);
  }
}

}  // namespace yafim::fim
