#include "fim/candidate_gen.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "engine/work.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {

namespace {

constexpr u64 kFoldSeed = 0xcbf29ce484222325ULL;

u64 fold(u64 h, Item item) { return mix64(h ^ item); }

/// Open-addressing set of a row arena's row indices (linear probing, load
/// at most 1/2), keyed by the fold of each row's items.
class RowTable {
 public:
  explicit RowTable(const ItemsetRows& rows)
      : rows_(rows),
        mask_(std::bit_ceil(std::max<size_t>(2 * rows.size(), 2)) - 1),
        slots_(mask_ + 1, kEmpty) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const Item* items = rows.row(r);
      u64 h = kFoldSeed;
      for (u32 j = 0; j < rows.width; ++j) h = fold(h, items[j]);
      size_t s = h & mask_;
      while (slots_[s] != kEmpty) s = (s + 1) & mask_;
      slots_[s] = static_cast<u32>(r);
    }
  }

  /// Is there a row `head[0, width-1) + last`, whose fold is `h`?
  bool contains(u64 h, const Item* head, Item last) const {
    const u32 w = rows_.width;
    for (size_t s = h & mask_; slots_[s] != kEmpty; s = (s + 1) & mask_) {
      const Item* r = rows_.row(slots_[s]);
      if (r[w - 1] == last && std::equal(r, r + w - 1, head)) return true;
    }
    return false;
  }

 private:
  static constexpr u32 kEmpty = 0xffffffffu;
  const ItemsetRows& rows_;
  size_t mask_;
  std::vector<u32> slots_;
};

}  // namespace

ItemsetRows apriori_gen_rows(const ItemsetRows& prev, u32 k) {
  YAFIM_CHECK(k >= 2, "apriori_gen starts at k = 2");
  const size_t n = prev.size();
  YAFIM_CHECK(n == 0 || prev.width == k - 1,
              "prev_frequent must be (k-1)-itemsets");
  const u32 w = k - 1;
  for (size_t i = 1; i < n; ++i) {
    const Item* a = prev.row(i - 1);
    const Item* b = prev.row(i);
    YAFIM_CHECK(std::lexicographical_compare(a, a + w, b, b + w),
                "prev_frequent rows must be sorted and duplicate-free");
  }

  ItemsetRows out{k, {}};
  if (k == 2 && n > 1) out.items.reserve(n * (n - 1));  // every pair survives
  std::optional<RowTable> table;
  if (k > 2) table.emplace(prev);
  // Per join parent a: for each droppable position s < k-2, a without s
  // (`dropped`, k-2 items) and the fold of those items (`head_fold`). The
  // subset of candidate a+last that skips s is dropped[s] + last.
  std::vector<Item> dropped(size_t{w} * w);
  std::vector<u64> head_fold(w);
  u64 units = 0;
  u64 pruned = 0;
  for (size_t g0 = 0; g0 < n;) {
    // Prefix group [g0, g1): rows sharing their first k-2 items. Row a's
    // pairwise scan compares it with every later row of the group, plus
    // the first row past the group when there is one.
    size_t g1 = g0 + 1;
    while (g1 < n && std::equal(prev.row(g0), prev.row(g0) + w - 1,
                                prev.row(g1))) {
      ++g1;
    }
    const u64 m = g1 - g0;
    units += m * (m - 1) / 2 + (g1 < n ? m : 0);

    for (size_t a = g0; a + 1 < g1; ++a) {
      const Item* ra = prev.row(a);
      if (table) {
        for (u32 s = 0; s + 1 < w; ++s) {
          Item* d = dropped.data() + size_t{s} * w;
          u64 h = kFoldSeed;
          for (u32 j = 0; j < w; ++j) {
            if (j == s) continue;
            h = fold(h, ra[j]);
            *d++ = ra[j];
          }
          head_fold[s] = h;
        }
      }
      for (size_t b = a + 1; b < g1; ++b) {
        const Item last = prev.row(b)[w - 1];
        if (table) {
          bool present = true;
          for (u32 s = 0; present && s + 1 < w; ++s) {
            ++units;
            present = table->contains(fold(head_fold[s], last),
                                      dropped.data() + size_t{s} * w, last);
          }
          if (!present) {
            ++pruned;
            continue;
          }
          units += 2;  // the two join parents, present by construction
        }
        out.items.insert(out.items.end(), ra, ra + w);
        out.items.push_back(last);
      }
    }
    g0 = g1;
  }
  engine::work::add(units);
  obs::count(obs::CounterId::kCandidatesGenerated, out.size());
  obs::count(obs::CounterId::kCandidatesPruned, pruned);
  return out;
}

std::vector<Itemset> apriori_gen(const std::vector<Itemset>& prev_frequent,
                                 u32 k) {
  return to_itemsets(apriori_gen_rows(to_sorted_rows(prev_frequent), k));
}

std::vector<ItemsetRows> candidate_levels(const ItemsetRows& frequent, u32 k,
                                          const PassCombining& combining,
                                          u32 last_level) {
  const bool dynamic = combining.strategy == CombineStrategy::kDynamic;
  u32 limit = 1;
  if (dynamic) {
    limit = ~0u;  // bounded by the candidate budget below
  } else if (combining.strategy == CombineStrategy::kFixedPasses && k > 3) {
    limit = std::max(1u, combining.fixed_passes);
  }
  const u64 budget = combining.dynamic_candidate_budget;
  std::vector<ItemsetRows> levels;
  u64 total = 0;
  for (u32 level = k; level - k < limit; ++level) {
    if (last_level != 0 && level > last_level) break;
    const ItemsetRows& base = levels.empty() ? frequent : levels.back();
    // Joining a large *unverified* level is a combinatorial explosion
    // (C2 = all pairs of L1 would join to nearly C(|L1|, 3) triples), so
    // DPC generates speculative levels only from bases within budget.
    if (dynamic && !levels.empty() && base.size() > budget) break;
    ItemsetRows candidates = apriori_gen_rows(base, level);
    if (candidates.empty()) break;
    if (dynamic && !levels.empty() && total + candidates.size() > budget) {
      break;
    }
    total += candidates.size();
    levels.push_back(std::move(candidates));
  }
  return levels;
}

u64 pass_combining_fingerprint(const PassCombining& combining) {
  switch (combining.strategy) {
    case CombineStrategy::kSinglePass:
      return 0;
    case CombineStrategy::kFixedPasses:
      return mix64((u64{1} << 62) ^ std::max(1u, combining.fixed_passes));
    case CombineStrategy::kDynamic:
      return mix64((u64{2} << 62) ^ combining.dynamic_candidate_budget);
  }
  return 0;
}

}  // namespace yafim::fim
