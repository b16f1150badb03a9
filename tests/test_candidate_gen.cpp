// Unit + property tests for Apriori candidate generation: the join, the
// prefix-class path, the rule that picks one per call and its price.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "datagen/benchmarks.h"
#include "engine/work.h"
#include "fim/candidate_gen.h"
#include "fim/eclat.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

TEST(CandidateGen, PairsFromSingletons) {
  const std::vector<Itemset> l1{{1}, {3}, {7}};
  const auto c2 = apriori_gen(l1, 2);
  EXPECT_EQ(c2, (std::vector<Itemset>{{1, 3}, {1, 7}, {3, 7}}));
}

TEST(CandidateGen, EmptyInput) {
  EXPECT_TRUE(apriori_gen({}, 2).empty());
  EXPECT_TRUE(apriori_gen({{1}}, 2).empty());  // one itemset cannot join
}

TEST(CandidateGen, ClassicTextbookExample) {
  // L3 = {abc, abd, acd, ace, bcd}; join gives abcd, acde;
  // prune removes acde (cde not in L3). (Han & Kamber example.)
  const std::vector<Itemset> l3{{1, 2, 3}, {1, 2, 4}, {1, 3, 4},
                                {1, 3, 5}, {2, 3, 4}};
  const auto c4 = apriori_gen(l3, 4);
  EXPECT_EQ(c4, (std::vector<Itemset>{{1, 2, 3, 4}}));
}

TEST(CandidateGen, PruneRemovesUnsupportedSubsets) {
  // {1,2} and {1,3} join to {1,2,3}, but {2,3} is missing -> pruned.
  const std::vector<Itemset> l2{{1, 2}, {1, 3}};
  EXPECT_TRUE(apriori_gen(l2, 3).empty());
}

TEST(CandidateGen, JoinRequiresSharedPrefix) {
  // {1,2} and {3,4} share no prefix -> no candidate.
  const std::vector<Itemset> l2{{1, 2}, {3, 4}};
  EXPECT_TRUE(apriori_gen(l2, 3).empty());
}

TEST(CandidateGen, UnsortedInputHandled) {
  const std::vector<Itemset> l1{{7}, {1}, {3}};
  const auto c2 = apriori_gen(l1, 2);
  EXPECT_EQ(c2.size(), 3u);
  EXPECT_TRUE(std::is_sorted(c2.begin(), c2.end()));
}

TEST(CandidateGen, WrongSizeInputAborts) {
  EXPECT_DEATH(apriori_gen({{1, 2}}, 2), "must be");
  EXPECT_DEATH(apriori_gen({{1}}, 3), "must be");
}

TEST(CandidateGen, RowCoreRejectsUnsortedOrDuplicateRows) {
  EXPECT_DEATH(apriori_gen_rows(ItemsetRows{2, {1, 3, 1, 2}}, 3),
               "sorted and duplicate-free");
  EXPECT_DEATH(apriori_gen_rows(ItemsetRows{1, {4, 4}}, 2),
               "sorted and duplicate-free");
}

/// Work units of the classic pairwise scan over the sorted input: row i is
/// compared with rows i+1, i+2, ... up to and including the first whose
/// (k-2)-prefix differs, and each joined candidate at k > 2 probes its
/// (k-1)-subsets, dropping position 0, 1, ..., k-1, up to and including
/// the first one missing from the input.
u64 pairwise_scan_units(std::vector<Itemset> prev, u32 k) {
  std::sort(prev.begin(), prev.end());
  const std::set<Itemset> present(prev.begin(), prev.end());
  u64 units = 0;
  for (size_t i = 0; i < prev.size(); ++i) {
    for (size_t j = i + 1; j < prev.size(); ++j) {
      ++units;
      if (!std::equal(prev[i].begin(), prev[i].end() - 1, prev[j].begin())) {
        break;
      }
      if (k == 2) continue;
      Itemset candidate = prev[i];
      candidate.push_back(prev[j].back());
      for (u32 skip = 0; skip < k; ++skip) {
        Itemset subset;
        for (u32 x = 0; x < k; ++x) {
          if (x != skip) subset.push_back(candidate[x]);
        }
        ++units;
        if (!present.count(subset)) break;
      }
    }
  }
  return units;
}

/// The join's shape over the sorted input: the pairwise scan's row
/// comparisons (its units before any probe) and the pairs it joins.
struct JoinShape {
  u64 comparisons = 0;
  u64 pairs = 0;
};

JoinShape join_shape_of(std::vector<Itemset> prev) {
  std::sort(prev.begin(), prev.end());
  JoinShape shape;
  for (size_t i = 0; i < prev.size(); ++i) {
    for (size_t j = i + 1; j < prev.size(); ++j) {
      ++shape.comparisons;
      if (!std::equal(prev[i].begin(), prev[i].end() - 1, prev[j].begin())) {
        break;
      }
      ++shape.pairs;
    }
  }
  return shape;
}

/// Reference: every k-set that extends a row of `prev` by a larger item of
/// `prev` and whose k (k-1)-subsets are all rows. Valid for any item values.
std::set<Itemset> extension_gen(const std::vector<Itemset>& prev, u32 k) {
  const std::set<Itemset> rows(prev.begin(), prev.end());
  std::set<Item> items;
  for (const Itemset& row : prev) items.insert(row.begin(), row.end());
  std::set<Itemset> out;
  for (const Itemset& row : prev) {
    for (auto c = items.upper_bound(row.back()); c != items.end(); ++c) {
      Itemset candidate = row;
      candidate.push_back(*c);
      bool ok = true;
      for (u32 skip = 0; skip + 1 < k && ok; ++skip) {
        Itemset subset;
        for (u32 x = 0; x < k; ++x) {
          if (x != skip) subset.push_back(candidate[x]);
        }
        ok = rows.count(subset) > 0;
      }
      if (ok) out.insert(candidate);
    }
  }
  return out;
}

/// Reference price of the prefix-class path, from its definition in
/// fim/candidate_gen.h: nothing when the last items span 64 values per row
/// or more, or its class bitsets would take more than two words per row,
/// else one unit per class lookup up to and including the first miss, k-2
/// per word ANDed and one per candidate emitted.
std::optional<u64> prefix_class_units(std::vector<Itemset> prev, u32 k) {
  std::sort(prev.begin(), prev.end());
  // Class: (k-2)-prefix -> its rows' last items, ascending.
  std::map<Itemset, std::vector<Item>> classes;
  std::set<Item> last_items;
  for (const Itemset& row : prev) {
    classes[Itemset(row.begin(), row.end() - 1)].push_back(row.back());
    last_items.insert(row.back());
  }
  if (!prev.empty() &&
      (*last_items.rbegin() - *last_items.begin()) / 64 >= prev.size()) {
    return std::nullopt;
  }
  const std::vector<Item> ranked(last_items.begin(), last_items.end());
  const auto word = [&](Item item) -> u64 {
    return (std::lower_bound(ranked.begin(), ranked.end(), item) -
            ranked.begin()) / 64;
  };
  u64 stored = 0;
  for (const auto& [prefix, members] : classes) {
    stored += word(members.back()) - word(members.front()) + 1;
  }
  if (stored > 2 * prev.size()) return std::nullopt;

  u64 units = 0;
  for (const Itemset& row : prev) {
    const Itemset prefix(row.begin(), row.end() - 1);
    const Item x = row.back();
    const std::vector<Item>& own = classes.at(prefix);
    if (x == own.back()) continue;  // no member above x
    std::vector<const std::vector<Item>*> others;
    for (u32 s = 0; s + 2 < k; ++s) {
      ++units;
      Itemset q;
      for (u32 j = 0; j < prefix.size(); ++j) {
        if (j != s) q.push_back(prefix[j]);
      }
      q.push_back(x);
      const auto it = classes.find(q);
      if (it == classes.end()) break;
      others.push_back(&it->second);
    }
    if (others.size() + 2 < k) continue;  // a lookup missed
    // Words from the one after x's rank to S_P's last, clipped to every
    // other class's words.
    const u64 x_rank = std::lower_bound(ranked.begin(), ranked.end(), x) -
                       ranked.begin();
    u64 w0 = (x_rank + 1) / 64;
    u64 w1 = word(own.back());
    for (const auto* other : others) {
      w0 = std::max(w0, word(other->front()));
      w1 = std::min(w1, word(other->back()));
    }
    if (w0 > w1) continue;
    units += u64{k - 2} * (w1 - w0 + 1);
    for (const Item c : own) {
      const bool everywhere = std::all_of(
          others.begin(), others.end(), [c](const std::vector<Item>* o) {
            return std::binary_search(o->begin(), o->end(), c);
          });
      if (c > x && everywhere) ++units;
    }
  }
  return units;
}

/// The units apriori_gen_rows must charge: the prefix-class path's price
/// when it runs and is no more than the join's lower bound -- comparisons,
/// one probe per pruned pair and k per candidate -- else the join's.
u64 rule_units(const std::vector<Itemset>& prev, u32 k) {
  const u64 join = pairwise_scan_units(prev, k);
  if (k == 2) return join;
  const std::optional<u64> classes = prefix_class_units(prev, k);
  if (!classes) return join;
  const JoinShape shape = join_shape_of(prev);
  const u64 c = extension_gen(prev, k).size();
  const u64 bound = shape.comparisons + (shape.pairs - c) + u64{k} * c;
  return *classes <= bound ? *classes : join;
}

u64 measured_units(const std::vector<Itemset>& prev, u32 k) {
  engine::work::Scope scope;
  (void)apriori_gen(prev, k);
  return scope.measured();
}

TEST(CandidateGen, WorkUnitsMatchTheRuleOnClique) {
  // Every 2-subset of 96 items: one prefix group per item, the largest of
  // 95 rows, and every joined triple survives all three probes. Its 95
  // last items take two words; the prefix-class path wins.
  std::vector<Itemset> l2;
  for (Item a = 0; a < 96; ++a) {
    for (Item b = a + 1; b < 96; ++b) l2.push_back({a, b});
  }
  EXPECT_EQ(measured_units(l2, 3), rule_units(l2, 3));
  EXPECT_LT(measured_units(l2, 3), pairwise_scan_units(l2, 3));
  EXPECT_EQ(apriori_gen(l2, 3).size(), 96u * 95 * 94 / 6);
  // Singletons of the clique: one group, no prune, the join.
  std::vector<Itemset> l1;
  for (Item a = 0; a < 96; ++a) l1.push_back({a});
  EXPECT_EQ(measured_units(l1, 2), pairwise_scan_units(l1, 2));
}

TEST(CandidateGen, RowsWithoutALaterMemberOrClass) {
  // Classes {1}: 2 3 9, {2}: 3, {3}: 4, {9}: 10. Row (1,2) meets S_2 in 3;
  // (1,3) finds S_3 = {4} but S_1 has only 9 above 3; (1,9) is its class's
  // last; the single-row classes extend nothing.
  const std::vector<Itemset> l2{{1, 2}, {1, 3}, {1, 9},
                                {2, 3}, {3, 4}, {9, 10}};
  EXPECT_EQ(apriori_gen(l2, 3), (std::vector<Itemset>{{1, 2, 3}}));
  const auto classes = detail::prefix_class_candidates(to_rows(l2), 3);
  ASSERT_TRUE(classes);
  // Two lookups, one word each, one candidate.
  EXPECT_EQ(classes->units, 5u);
  EXPECT_EQ(prefix_class_units(l2, 3), std::optional<u64>{5});
  EXPECT_EQ(measured_units(l2, 3), 5u);
  // The join: 8 comparisons, then 3 units for (1,2,3) and one probe each
  // for the pruned (1,2,9) and (1,3,9).
  EXPECT_EQ(pairwise_scan_units(l2, 3), 13u);
  // A class lookup that misses: no class {3} in this L2.
  const std::vector<Itemset> missing{{1, 2}, {1, 3}, {1, 9}, {2, 3}};
  EXPECT_EQ(apriori_gen(missing, 3), (std::vector<Itemset>{{1, 2, 3}}));
  EXPECT_EQ(measured_units(missing, 3), rule_units(missing, 3));
}

TEST(CandidateGen, CompleteLevelsTakeTheJoinFromK10) {
  // L(k-1) = every (k-1)-subset of m items, as on Chess at 80% (k = 11,
  // m = 13). With two rows per class and k-2 lookups per row the
  // prefix-class path costs more than the join from k = 10 at m = k + 2.
  u32 joined = 0;
  u32 classed = 0;
  for (u32 k = 3; k <= 13; ++k) {
    for (u32 m = k; m <= k + 2; ++m) {
      std::vector<Itemset> prev;
      for (u32 mask = 0; mask < (1u << m); ++mask) {
        if (static_cast<u32>(std::popcount(mask)) != k - 1) continue;
        Itemset row;
        for (u32 i = 0; i < m; ++i) {
          if ((mask >> i) & 1) row.push_back(i);
        }
        prev.push_back(row);
      }
      const u64 units = measured_units(prev, k);
      EXPECT_EQ(units, rule_units(prev, k)) << "k=" << k << " m=" << m;
      const u64 join = pairwise_scan_units(prev, k);
      EXPECT_LE(units, join);
      (units == join ? joined : classed) += 1;
      EXPECT_EQ(apriori_gen(prev, k).size(),
                extension_gen(prev, k).size());
    }
  }
  EXPECT_EQ(joined, 7u);  // m = k + 1 at k = 11..13, m = k + 2 at 10..13
  EXPECT_EQ(classed, 26u);
}

TEST(CandidateGen, BitsetsOverTwoWordsPerRowTakeTheJoin) {
  // 300 classes of two rows whose last items rank 300 apart: about five
  // words of bitset per class, more than two per row.
  std::vector<Itemset> l2;
  for (Item g = 0; g < 300; ++g) {
    l2.push_back({g, 1000 + g});
    l2.push_back({g, 5000 + g});
  }
  EXPECT_FALSE(detail::prefix_class_candidates(to_rows(l2), 3));
  EXPECT_FALSE(prefix_class_units(l2, 3));
  EXPECT_EQ(measured_units(l2, 3), pairwise_scan_units(l2, 3));
  EXPECT_TRUE(apriori_gen(l2, 3).empty());
}

TEST(CandidateGen, LastItemsOverAWordPerRowTakeTheJoin) {
  // Four rows whose last items span 2..hi: the ranking bitmap takes
  // (hi - 2) / 64 + 1 words, under one per row up to hi = 257.
  for (const Item hi : {257u, 258u}) {
    const std::vector<Itemset> l2{{1, 2}, {1, 3}, {1, hi}, {2, 3}};
    const auto classes = detail::prefix_class_candidates(to_rows(l2), 3);
    EXPECT_EQ(classes.has_value(), hi == 257u) << hi;
    EXPECT_EQ(classes.has_value(), prefix_class_units(l2, 3).has_value());
    EXPECT_EQ(measured_units(l2, 3), rule_units(l2, 3)) << hi;
    EXPECT_EQ(apriori_gen(l2, 3), (std::vector<Itemset>{{1, 2, 3}}));
  }
}

/// Brute-force reference: all k-sets whose every (k-1)-subset is in prev.
std::set<Itemset> brute_force_gen(const std::vector<Itemset>& prev, u32 k,
                                  u32 universe) {
  std::set<Itemset> prev_set(prev.begin(), prev.end());
  std::set<Itemset> out;
  // Enumerate all k-subsets of [0, universe).
  std::vector<u32> idx(k);
  std::function<void(u32, u32)> rec = [&](u32 pos, u32 start) {
    if (pos == k) {
      Itemset c(idx.begin(), idx.end());
      bool ok = true;
      for (u32 skip = 0; skip < k && ok; ++skip) {
        Itemset sub;
        for (u32 j = 0; j < k; ++j) {
          if (j != skip) sub.push_back(c[j]);
        }
        ok = prev_set.count(sub) > 0;
      }
      if (ok) out.insert(c);
      return;
    }
    for (u32 i = start; i < universe; ++i) {
      idx[pos] = i;
      rec(pos + 1, i + 1);
    }
  };
  rec(0, 0);
  return out;
}

class CandidateGenSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

constexpr u32 kSweepUniverse = 9;

/// The sweep's previous level: 25 random (k-1)-sets, sorted and deduped.
std::vector<Itemset> sweep_input(u32 k, u32 seed) {
  Rng rng(seed);
  std::set<Itemset> prev_set;
  for (int i = 0; i < 25; ++i) {
    Itemset s;
    while (s.size() < k - 1) {
      const Item item = static_cast<Item>(rng.below(kSweepUniverse));
      if (std::find(s.begin(), s.end(), item) == s.end()) s.push_back(item);
    }
    canonicalize(s);
    prev_set.insert(s);
  }
  return {prev_set.begin(), prev_set.end()};
}

TEST_P(CandidateGenSweep, MatchesBruteForce) {
  const auto [k, seed] = GetParam();
  const std::vector<Itemset> prev = sweep_input(k, seed);

  const auto got = apriori_gen(prev, k);
  const auto expected = brute_force_gen(prev, k, kSweepUniverse);
  EXPECT_EQ(std::set<Itemset>(got.begin(), got.end()), expected)
      << "k=" << k << " seed=" << seed;
  // No duplicates in the generated list.
  EXPECT_EQ(got.size(), std::set<Itemset>(got.begin(), got.end()).size());
}

TEST_P(CandidateGenSweep, WorkUnitsMatchTheRule) {
  const auto [k, seed] = GetParam();
  std::vector<Itemset> prev = sweep_input(k, seed);
  EXPECT_EQ(measured_units(prev, k), rule_units(prev, k))
      << "k=" << k << " seed=" << seed;
  EXPECT_LE(measured_units(prev, k), pairwise_scan_units(prev, k));
  // Input order does not matter: the adapter sorts before generating.
  std::reverse(prev.begin(), prev.end());
  EXPECT_EQ(measured_units(prev, k), rule_units(prev, k));
}

TEST_P(CandidateGenSweep, RowCoreMatchesAdapter) {
  const auto [k, seed] = GetParam();
  const std::vector<Itemset> prev = sweep_input(k, seed);
  const ItemsetRows rows = apriori_gen_rows(to_rows(prev), k);
  EXPECT_EQ(rows.width, k);
  EXPECT_EQ(to_itemsets(rows), apriori_gen(prev, k))
      << "k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CandidateGenSweep,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u),
                                            ::testing::Range(1u, 9u)));

/// A previous level with candidates at every k: all (k-1)-subsets of 12
/// random (k+1)-sets, plus 40 random (k-1)-sets (pruned pairs and
/// single-row classes), over `universe` distinct values.
std::vector<Itemset> layered_input(u32 k, const std::vector<Item>& universe,
                                   u64 seed) {
  Rng rng(seed);
  const auto random_set = [&](u32 size) {
    Itemset s;
    while (s.size() < size) {
      const Item item = universe[rng.below(universe.size())];
      if (std::find(s.begin(), s.end(), item) == s.end()) s.push_back(item);
    }
    canonicalize(s);
    return s;
  };
  std::set<Itemset> rows;
  for (int b = 0; b < 12; ++b) {
    const Itemset basket = random_set(k + 1);
    for (u32 a = 0; a < basket.size(); ++a) {
      for (u32 c = a + 1; c < basket.size(); ++c) {
        Itemset row;
        for (u32 j = 0; j < basket.size(); ++j) {
          if (j != a && j != c) row.push_back(basket[j]);
        }
        if (k == 2) row = Itemset{basket[a]};
        rows.insert(row);
      }
    }
  }
  for (int r = 0; r < 40; ++r) rows.insert(random_set(k - 1));
  return {rows.begin(), rows.end()};
}

/// Items near 0, near 2^32 - 1, or spread over the whole range (too wide
/// for the prefix-class path's ranking bitmap: the join runs).
enum class Values { kLow, kHigh, kSpread };

std::vector<Item> universe_of(u32 size, Values values) {
  std::vector<Item> items;
  for (u32 i = 0; i < size; ++i) {
    switch (values) {
      case Values::kLow:
        items.push_back(i);
        break;
      case Values::kHigh:
        items.push_back(0xffffffffu - (size - 1) + i);
        break;
      case Values::kSpread:
        items.push_back(i % 2 == 0 ? i : 0xffffffffu - i);
        break;
    }
  }
  return items;
}

/// (k, distinct items: 1, 2 or 4 words of bitset, values, seed)
class CandidateGenWide
    : public ::testing::TestWithParam<std::tuple<u32, u32, Values, u32>> {};

TEST_P(CandidateGenWide, BothPathsEmitTheReferenceRowsInOrder) {
  const auto [k, size, values, seed] = GetParam();
  const std::vector<Itemset> prev =
      layered_input(k, universe_of(size, values), seed);
  const ItemsetRows rows = to_rows(prev);
  const detail::Generated join = detail::join_candidates(rows, k);
  const std::set<Itemset> expected = extension_gen(prev, k);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(to_itemsets(join.rows),
            std::vector<Itemset>(expected.begin(), expected.end()));
  EXPECT_EQ(join.units, pairwise_scan_units(prev, k));
  if (const auto classes = detail::prefix_class_candidates(rows, k)) {
    EXPECT_EQ(classes->rows.items, join.rows.items);
    EXPECT_EQ(std::optional<u64>{classes->units},
              prefix_class_units(prev, k));
  } else {
    EXPECT_TRUE(k == 2 || !prefix_class_units(prev, k));
  }

  // The rule: the join's rows, the rule's price, never above the join's,
  // and the join's counters.
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  u64 units = 0;
  ItemsetRows got;
  {
    engine::work::Scope scope;
    got = apriori_gen_rows(rows, k);
    units = scope.measured();
  }
  obs::set_enabled(false);
  EXPECT_EQ(got.width, k);
  EXPECT_EQ(got.items, join.rows.items);
  EXPECT_EQ(units, rule_units(prev, k));
  EXPECT_LE(units, join.units);
  EXPECT_EQ(obs::counter_value(obs::CounterId::kCandidatesGenerated),
            join.rows.size());
  EXPECT_EQ(obs::counter_value(obs::CounterId::kCandidatesPruned),
            join_shape_of(prev).pairs - join.rows.size());
}

INSTANTIATE_TEST_SUITE_P(
    Wide, CandidateGenWide,
    ::testing::Combine(::testing::Range(2u, 8u),
                       ::testing::Values(40u, 100u, 200u),
                       ::testing::Values(Values::kLow, Values::kHigh,
                                         Values::kSpread),
                       ::testing::Values(1u, 2u)));

TEST(CandidateGen, LevelsEqualTheJoinsOnEveryDatasetAndCombining) {
  // candidate_levels under SPC, FPC and DPC against levels chained through
  // the join alone, from every level of the five mine_cli datasets.
  const PassCombining combinings[] = {
      {CombineStrategy::kSinglePass},
      {CombineStrategy::kFixedPasses},
      {CombineStrategy::kDynamic}};
  for (const auto& bench :
       {datagen::make_mushroom(), datagen::make_t10i4d100k(),
        datagen::make_chess(), datagen::make_pumsb_star(),
        datagen::make_medical()}) {
    const MiningRun run = eclat_mine(bench.db, bench.paper_min_support);
    for (u32 k = 2; k <= run.itemsets.max_k(); ++k) {
      std::vector<Itemset> sets;
      for (const auto& [itemset, support] : run.itemsets.level(k - 1)) {
        sets.push_back(itemset);
      }
      const ItemsetRows frequent = to_sorted_rows(sets);
      std::vector<ItemsetRows> chain;
      for (const PassCombining& combining : combinings) {
        const std::vector<ItemsetRows> levels =
            candidate_levels(frequent, k, combining);
        for (size_t j = 0; j < levels.size(); ++j) {
          if (chain.size() == j) {
            chain.push_back(detail::join_candidates(
                                j == 0 ? frequent : chain[j - 1],
                                k + static_cast<u32>(j))
                                .rows);
          }
          EXPECT_EQ(levels[j].items, chain[j].items)
              << bench.name << " k=" << k << " level " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace yafim::fim
