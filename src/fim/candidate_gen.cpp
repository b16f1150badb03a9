#include "fim/candidate_gen.h"

#include <algorithm>
#include <bit>
#include <span>

#include "engine/work.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {

namespace {

constexpr u64 kFoldSeed = 0xcbf29ce484222325ULL;
constexpr u32 kNone = 0xffffffffu;

u64 fold(u64 h, Item item) { return mix64(h ^ item); }

/// For each s < `positions`: the `width` items without items[s], written to
/// dropped[s * (width - 1), ...), and the fold of those items, to folds[s].
void drop_each(const Item* items, u32 width, u32 positions, Item* dropped,
               u64* folds) {
  for (u32 s = 0; s < positions; ++s) {
    u64 h = kFoldSeed;
    for (u32 j = 0; j < width; ++j) {
      if (j == s) continue;
      h = fold(h, items[j]);
      *dropped++ = items[j];
    }
    folds[s] = h;
  }
}

/// Open-addressing table (linear probing, load at most 1/2) over rows of an
/// arena, keyed by the fold of each row's first `width` items. Entry v is
/// row v, or row entry_rows[v] when `entry_rows` is given.
class RowTable {
 public:
  RowTable(const ItemsetRows& rows, u32 width,
           std::span<const u32> entry_rows = {})
      : rows_(rows), width_(width), entry_rows_(entry_rows) {
    const size_t n = entry_rows.empty() ? rows.size() : entry_rows.size();
    mask_ = std::bit_ceil(std::max<size_t>(2 * n, 2)) - 1;
    slots_.assign(mask_ + 1, kNone);
    for (size_t v = 0; v < n; ++v) {
      const Item* items = key(v);
      u64 h = kFoldSeed;
      for (u32 j = 0; j < width; ++j) h = fold(h, items[j]);
      size_t s = h & mask_;
      while (slots_[s] != kNone) s = (s + 1) & mask_;
      slots_[s] = static_cast<u32>(v);
    }
  }

  /// The entry keyed `head[0, width-1) + last`, whose fold is `h`, or kNone.
  u32 find(u64 h, const Item* head, Item last) const {
    for (size_t s = h & mask_; slots_[s] != kNone; s = (s + 1) & mask_) {
      const Item* r = key(slots_[s]);
      if (r[width_ - 1] == last && std::equal(r, r + width_ - 1, head)) {
        return slots_[s];
      }
    }
    return kNone;
  }

 private:
  const Item* key(size_t v) const {
    return rows_.row(entry_rows_.empty() ? v : entry_rows_[v]);
  }

  const ItemsetRows& rows_;
  u32 width_;
  std::span<const u32> entry_rows_;
  size_t mask_ = 0;
  std::vector<u32> slots_;
};

/// Where each prefix group of sorted `prev` starts (rows sharing their
/// first width-1 items), then prev.size(): group g is rows
/// [start[g], start[g+1]).
std::vector<u32> prefix_groups(const ItemsetRows& prev) {
  const size_t n = prev.size();
  const u32 p = prev.width - 1;
  std::vector<u32> start{0};
  for (size_t r = 1; r < n; ++r) {
    if (!std::equal(prev.row(r - 1), prev.row(r - 1) + p, prev.row(r))) {
      start.push_back(static_cast<u32>(r));
    }
  }
  if (n > 0) start.push_back(static_cast<u32>(n));
  return start;
}

struct JoinShape {
  u64 pairs = 0;        ///< joined pairs: m(m-1)/2 per group of m rows
  u64 comparisons = 0;  ///< the pairwise scan's row comparisons
};

JoinShape join_shape(std::span<const u32> start) {
  JoinShape shape;
  for (size_t g = 0; g + 1 < start.size(); ++g) {
    const u64 m = start[g + 1] - start[g];
    shape.pairs += m * (m - 1) / 2;
    const bool next = start[g + 1] < start.back();  // a group follows
    shape.comparisons += m * (m - 1) / 2 + (next ? m : 0);
  }
  return shape;
}

detail::Generated join(const ItemsetRows& prev, u32 k,
                       std::span<const u32> start) {
  const size_t n = prev.size();
  const u32 w = k - 1;
  detail::Generated gen{{k, {}}, join_shape(start).comparisons};
  ItemsetRows& out = gen.rows;
  if (k == 2 && n > 1) out.items.reserve(n * (n - 1));  // every pair survives
  std::optional<RowTable> table;
  if (k > 2) table.emplace(prev, w);
  // Per join parent a, for each droppable position s < k-2: a without s
  // (`dropped`, k-2 items) and its fold. The subset of candidate a+last
  // that skips s is dropped[s] + last.
  std::vector<Item> dropped(size_t{w - 1} * (w - 1));
  std::vector<u64> head_fold(w - 1);
  for (size_t g = 0; g + 1 < start.size(); ++g) {
    const u32 g1 = start[g + 1];
    for (u32 a = start[g]; a + 1 < g1; ++a) {
      const Item* ra = prev.row(a);
      if (table) drop_each(ra, w, w - 1, dropped.data(), head_fold.data());
      for (u32 b = a + 1; b < g1; ++b) {
        const Item last = prev.row(b)[w - 1];
        if (table) {
          bool present = true;
          for (u32 s = 0; present && s + 1 < w; ++s) {
            ++gen.units;
            present = table->find(fold(head_fold[s], last),
                                  dropped.data() + size_t{s} * (w - 1),
                                  last) != kNone;
          }
          if (!present) continue;
          gen.units += 2;  // the two join parents, present by construction
        }
        for (u32 j = 0; j < w; ++j) out.items.push_back(ra[j]);
        out.items.push_back(last);
      }
    }
  }
  return gen;
}

/// The prefix-class path (k >= 3), or nothing when prev's last items span
/// 64 values per row or more, or its class bitsets would take more than two
/// words per row of `prev`.
std::optional<detail::Generated> prefix_classes(const ItemsetRows& prev,
                                                u32 k,
                                                std::span<const u32> start) {
  const size_t n = prev.size();
  const u32 w = k - 1;
  const u32 p = k - 2;  // prefix length
  const size_t num_classes = start.size() - 1;
  // An item's rank is its index among prev's distinct last items, ascending:
  // read off a presence bitmap over their values [lo, hi], under a word per
  // row.
  Item lo = n > 0 ? prev.row(0)[p] : 0;
  Item hi = lo;
  for (size_t r = 1; r < n; ++r) {
    lo = std::min(lo, prev.row(r)[p]);
    hi = std::max(hi, prev.row(r)[p]);
  }
  if (n > 0 && (hi - lo) / 64 >= n) return std::nullopt;
  std::vector<u64> present((hi - lo) / 64 + 1);
  for (size_t r = 0; r < n; ++r) {
    const u32 d = prev.row(r)[p] - lo;
    present[d / 64] |= u64{1} << (d % 64);
  }
  std::vector<u32> below(present.size());  // ranks before each word
  std::vector<Item> last;                  // by rank
  for (size_t i = 0; i < present.size(); ++i) {
    below[i] = static_cast<u32>(last.size());
    for (u64 bits = present[i]; bits != 0; bits &= bits - 1) {
      last.push_back(lo + static_cast<Item>(i * 64) + std::countr_zero(bits));
    }
  }
  std::vector<u32> rank(n);
  for (size_t r = 0; r < n; ++r) {
    const u32 d = prev.row(r)[p] - lo;
    rank[r] = below[d / 64] +
              std::popcount(present[d / 64] & ((u64{1} << (d % 64)) - 1));
  }
  // Class g's members are its rows' last items, ascending. Its bitset over
  // their ranks keeps the words from its smallest member's to its largest
  // member's; word i is bits[base[g] + i] (unsigned wrap-around).
  std::vector<u32> first_word(num_classes);
  std::vector<u32> last_word(num_classes);
  std::vector<size_t> base(num_classes);
  size_t total_words = 0;
  for (size_t g = 0; g < num_classes; ++g) {
    first_word[g] = rank[start[g]] / 64;
    last_word[g] = rank[start[g + 1] - 1] / 64;
    base[g] = total_words - first_word[g];
    total_words += last_word[g] - first_word[g] + 1;
  }
  if (total_words > 2 * n) return std::nullopt;
  std::vector<u64> bits(total_words);
  for (size_t g = 0; g < num_classes; ++g) {
    for (u32 r = start[g]; r < start[g + 1]; ++r) {
      bits[base[g] + rank[r] / 64] |= u64{1} << (rank[r] % 64);
    }
  }
  // The class with prefix Q, through a table of the classes' prefixes.
  const RowTable classes(prev, p, start.first(num_classes));

  detail::Generated gen{{k, {}}, 0};
  ItemsetRows& out = gen.rows;
  // Per class P, for each s < k-2: P without P[s] (`dropped`, k-3 items)
  // and its fold. Row P+x's subset that skips P[s] is the class prefix
  // dropped[s] + x; `others[s]` is that class.
  std::vector<Item> dropped(size_t{p} * (p - 1));
  std::vector<u64> head_fold(p);
  std::vector<u32> others(p);
  for (size_t g = 0; g < num_classes; ++g) {
    const u32 g1 = start[g + 1];
    if (g1 - start[g] < 2) continue;
    drop_each(prev.row(start[g]), p, p, dropped.data(), head_fold.data());
    for (u32 a = start[g]; a + 1 < g1; ++a) {
      const Item* ra = prev.row(a);
      bool found = true;
      for (u32 s = 0; found && s < p; ++s) {
        ++gen.units;
        others[s] = classes.find(fold(head_fold[s], ra[p]),
                                 dropped.data() + size_t{s} * (p - 1), ra[p]);
        found = others[s] != kNone;
      }
      if (!found) continue;
      // The members above x = ra[p]: from x's word to S_P's last, clipped
      // to every other class's stored words.
      const u32 lo = rank[a] + 1;
      u32 w0 = lo / 64;
      u32 w1 = last_word[g];
      for (u32 s = 0; s < p; ++s) {
        w0 = std::max(w0, first_word[others[s]]);
        w1 = std::min(w1, last_word[others[s]]);
      }
      if (w0 > w1) continue;
      gen.units += u64{p} * (w1 - w0 + 1);
      for (u32 i = w0; i <= w1; ++i) {
        u64 meet = bits[base[g] + i];
        for (u32 s = 0; s < p; ++s) meet &= bits[base[others[s]] + i];
        if (i == lo / 64) meet &= ~u64{0} << (lo % 64);
        for (; meet != 0; meet &= meet - 1) {
          for (u32 j = 0; j < w; ++j) out.items.push_back(ra[j]);
          out.items.push_back(last[size_t{i} * 64 + std::countr_zero(meet)]);
          ++gen.units;
        }
      }
    }
  }
  return gen;
}

}  // namespace

namespace detail {

Generated join_candidates(const ItemsetRows& prev, u32 k) {
  return join(prev, k, prefix_groups(prev));
}

std::optional<Generated> prefix_class_candidates(const ItemsetRows& prev,
                                                 u32 k) {
  if (k < 3) return std::nullopt;
  return prefix_classes(prev, k, prefix_groups(prev));
}

}  // namespace detail

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

  const std::vector<u32> start = prefix_groups(prev);
  const JoinShape shape = join_shape(start);
  std::optional<detail::Generated> gen;
  if (k > 2) gen = prefix_classes(prev, k, start);
  if (gen) {
    // The join's units are at least its comparisons, one probe per pruned
    // pair and k per candidate (exactly these at k = 3).
    const u64 c = gen->rows.size();
    if (gen->units > shape.comparisons + (shape.pairs - c) + u64{k} * c) {
      gen.reset();
    }
  }
  if (!gen) gen = join(prev, k, start);
  engine::work::add(gen->units);
  obs::count(obs::CounterId::kCandidatesGenerated, gen->rows.size());
  obs::count(obs::CounterId::kCandidatesPruned,
             shape.pairs - gen->rows.size());
  return std::move(gen->rows);
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
