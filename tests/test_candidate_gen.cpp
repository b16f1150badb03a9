// Unit + property tests for Apriori candidate generation (join + prune).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "engine/work.h"
#include "fim/candidate_gen.h"
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

u64 measured_units(const std::vector<Itemset>& prev, u32 k) {
  engine::work::Scope scope;
  (void)apriori_gen(prev, k);
  return scope.measured();
}

TEST(CandidateGen, WorkUnitsMatchPairwiseScanOnClique) {
  // Every 2-subset of 96 items: one prefix group per item, the largest of
  // 95 rows, and every joined triple survives all three probes.
  std::vector<Itemset> l2;
  for (Item a = 0; a < 96; ++a) {
    for (Item b = a + 1; b < 96; ++b) l2.push_back({a, b});
  }
  EXPECT_EQ(measured_units(l2, 3), pairwise_scan_units(l2, 3));
  EXPECT_EQ(apriori_gen(l2, 3).size(), 96u * 95 * 94 / 6);
  // Singletons of the clique: one group, no prune.
  std::vector<Itemset> l1;
  for (Item a = 0; a < 96; ++a) l1.push_back({a});
  EXPECT_EQ(measured_units(l1, 2), pairwise_scan_units(l1, 2));
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

TEST_P(CandidateGenSweep, WorkUnitsMatchPairwiseScan) {
  const auto [k, seed] = GetParam();
  std::vector<Itemset> prev = sweep_input(k, seed);
  EXPECT_EQ(measured_units(prev, k), pairwise_scan_units(prev, k))
      << "k=" << k << " seed=" << seed;
  // Input order does not matter: the adapter sorts before the scan.
  std::reverse(prev.begin(), prev.end());
  EXPECT_EQ(measured_units(prev, k), pairwise_scan_units(prev, k));
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

}  // namespace
}  // namespace yafim::fim
