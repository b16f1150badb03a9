// Tests for the sequential Apriori reference miner, including a brute-force
// oracle on small random databases.
#include <gtest/gtest.h>

#include <functional>

#include "fim/apriori_seq.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

/// Brute force: enumerate every itemset over the universe and count its
/// support by full scans. Only viable for tiny universes.
FrequentItemsets brute_force_mine(const TransactionDB& db,
                                  double min_support, u32 universe) {
  const u64 min_count = db.min_support_count(min_support);
  FrequentItemsets out(min_count, db.size());
  std::function<void(Itemset&, u32)> rec = [&](Itemset& current, u32 next) {
    for (u32 item = next; item < universe; ++item) {
      current.push_back(item);
      const u64 support = db.support(current);
      if (support >= min_count) {
        out.add(current, support);
        rec(current, item + 1);  // supersets can only be frequent if this is
      }
      current.pop_back();
    }
  };
  Itemset current;
  rec(current, 0);
  return out;
}

TEST(AprioriSeq, HandWorkedExample) {
  // The classic 9-transaction example (Han & Kamber, Table 5.1 style).
  TransactionDB db({{1, 2, 5},
                    {2, 4},
                    {2, 3},
                    {1, 2, 4},
                    {1, 3},
                    {2, 3},
                    {1, 3},
                    {1, 2, 3, 5},
                    {1, 2, 3}});
  AprioriOptions opt;
  opt.min_support = 2.0 / 9.0;  // absolute count 2
  const auto run = apriori_mine(db, opt);

  EXPECT_EQ(run.itemsets.min_support_count(), 2u);
  EXPECT_EQ(run.itemsets.support_of({1}), 6u);
  EXPECT_EQ(run.itemsets.support_of({2}), 7u);
  EXPECT_EQ(run.itemsets.support_of({1, 2}), 4u);
  EXPECT_EQ(run.itemsets.support_of({1, 2, 3}), 2u);
  EXPECT_EQ(run.itemsets.support_of({1, 2, 5}), 2u);
  EXPECT_EQ(run.itemsets.support_of({4}), 2u);
  EXPECT_EQ(run.itemsets.support_of({1, 4}), 0u);  // below threshold
  EXPECT_EQ(run.itemsets.max_k(), 3u);
  EXPECT_EQ(run.itemsets.level(3).size(), 2u);
}

TEST(AprioriSeq, EmptyDatabase) {
  TransactionDB db;
  AprioriOptions opt;
  opt.min_support = 0.5;
  const auto run = apriori_mine(db, opt);
  EXPECT_EQ(run.itemsets.total(), 0u);
}

TEST(AprioriSeq, SupportOneHundredPercent) {
  TransactionDB db({{1, 2}, {1, 2}, {1, 2, 3}});
  AprioriOptions opt;
  opt.min_support = 1.0;
  const auto run = apriori_mine(db, opt);
  EXPECT_EQ(run.itemsets.total(), 3u);  // {1}, {2}, {1,2}
  EXPECT_EQ(run.itemsets.support_of({1, 2}), 3u);
  EXPECT_FALSE(run.itemsets.contains({3}));
}

TEST(AprioriSeq, PassStatsAreConsistent) {
  TransactionDB db({{1, 2, 3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}});
  AprioriOptions opt;
  opt.min_support = 0.5;
  const auto run = apriori_mine(db, opt);
  ASSERT_GE(run.passes.size(), 2u);
  for (size_t i = 0; i < run.passes.size(); ++i) {
    EXPECT_EQ(run.passes[i].k, i + 1);
    EXPECT_GE(run.passes[i].candidates, run.passes[i].frequent);
    EXPECT_EQ(run.passes[i].frequent,
              run.itemsets.level(static_cast<u32>(i + 1)).size());
  }
}

/// Property sweep: Apriori equals the brute-force oracle across densities
/// and thresholds.
class AprioriOracleSweep
    : public ::testing::TestWithParam<std::tuple<double, double, u32>> {};

TEST_P(AprioriOracleSweep, MatchesBruteForce) {
  const auto [density, min_support, seed] = GetParam();
  constexpr u32 kUniverse = 10;
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < 80; ++i) {
    Transaction t;
    for (u32 item = 0; item < kUniverse; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<Item>(rng.below(kUniverse)));
    tx.push_back(std::move(t));
  }
  TransactionDB db(std::move(tx));

  AprioriOptions opt;
  opt.min_support = min_support;
  const auto run = apriori_mine(db, opt);
  const auto oracle = brute_force_mine(db, min_support, kUniverse);
  EXPECT_TRUE(run.itemsets.same_itemsets(oracle))
      << "density=" << density << " min_support=" << min_support
      << " seed=" << seed << " got=" << run.itemsets.total()
      << " expected=" << oracle.total();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AprioriOracleSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(0.1, 0.3, 0.6),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace yafim::fim
