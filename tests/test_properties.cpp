// Cross-cutting property suites: invariants that must hold across the whole
// stack for randomized inputs and parameter sweeps -- partitioning
// invariance, shuffle-operator equivalence with serial references, work
// accounting consistency, and miner-independence of every knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "datagen/benchmarks.h"
#include "datagen/quest.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/yafim.h"
#include "util/rng.h"

namespace yafim {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

// ---- engine: shuffle operators vs serial references ---------------------

class ShuffleOpsSweep : public ::testing::TestWithParam<std::tuple<u32, u32>> {
 protected:
  std::vector<std::pair<u32, u32>> random_pairs(u32 num_keys, u64 seed,
                                                int n = 600) {
    Rng rng(seed);
    std::vector<std::pair<u32, u32>> pairs;
    pairs.reserve(n);
    for (int i = 0; i < n; ++i) {
      pairs.emplace_back(static_cast<u32>(rng.below(num_keys)),
                         static_cast<u32>(rng.below(100)));
    }
    return pairs;
  }
};

TEST_P(ShuffleOpsSweep, GroupByKeyMatchesSerial) {
  const auto [partitions, num_keys] = GetParam();
  engine::Context ctx(small_cluster());
  const auto pairs = random_pairs(num_keys, partitions * 131 + num_keys);

  std::map<u32, std::multiset<u32>> expected;
  for (const auto& [k, v] : pairs) expected[k].insert(v);

  auto grouped = ctx.parallelize(
                        std::vector<std::pair<u32, u32>>(pairs), partitions)
                     .group_by_key()
                     .collect();
  ASSERT_EQ(grouped.size(), expected.size());
  for (auto& [k, values] : grouped) {
    EXPECT_EQ(std::multiset<u32>(values.begin(), values.end()),
              expected.at(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShuffleOpsSweep,
                         ::testing::Combine(::testing::Values(1u, 4u, 16u),
                                            ::testing::Values(3u, 40u,
                                                              1000u)));

// ---- engine: work accounting invariants ----------------------------------

TEST(WorkAccounting, FusedChainCountsEveryOperator) {
  // Exact work counts: injected task failures would add wasted-work units,
  // so this test opts out of the ambient fault-matrix profile.
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  // map (100) + filter (100) + map (50) = 250 units for the collect stage.
  ctx.parallelize(std::move(data), 4)
      .map([](const int& x) { return x; })
      .filter([](const int& x) { return x % 2 == 0; })
      .map([](const int& x) { return x; })
      .collect();
  EXPECT_EQ(ctx.report().total_work(), 250u);
}

TEST(WorkAccounting, CachedRddChargesComputeOnlyOnce) {
  // Exact work counts: ambient cache corruption would drop a cached
  // partition and recharge its recompute, so opt out of the env profile.
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = ctx.parallelize(std::move(data), 4).map([](const int& x) {
    return x;
  });
  rdd.persist();
  rdd.collect();
  const u64 after_first = ctx.report().total_work();
  rdd.collect();
  // The second collect reads the cache: no map work, stages record 0.
  EXPECT_EQ(ctx.report().total_work(), after_first);
}

TEST(WorkAccounting, SimTimeMonotoneInWork) {
  engine::Context ctx(small_cluster());
  const sim::CostModel& model = ctx.cost_model();
  sim::StageRecord small, large;
  small.tasks = {sim::TaskRecord{1000}};
  large.tasks = {sim::TaskRecord{100'000'000}};
  EXPECT_LT(sim::stage_seconds(small, model),
            sim::stage_seconds(large, model));
}

// ---- yafim: result invariance across every engine knob -------------------

class YafimKnobSweep : public ::testing::TestWithParam<u32> {};

TEST_P(YafimKnobSweep, PartitionCountNeverChangesResults) {
  const u32 partitions = GetParam();
  Rng rng(99);
  std::vector<fim::Transaction> tx;
  for (int i = 0; i < 180; ++i) {
    fim::Transaction t;
    for (u32 item = 0; item < 13; ++item) {
      if (rng.bernoulli(0.45)) t.push_back(item);
    }
    if (t.empty()) t.push_back(0);
    tx.push_back(std::move(t));
  }
  const fim::TransactionDB db(std::move(tx));

  fim::AprioriOptions ref_opt;
  ref_opt.min_support = 0.25;
  const auto reference = fim::apriori_mine(db, ref_opt).itemsets;

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = 0.25;
  opt.partitions = partitions;
  const auto run = fim::yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference))
      << partitions << " partitions";
}

INSTANTIATE_TEST_SUITE_P(Sweep, YafimKnobSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 64u, 200u));

// ---- datagen: statistical shape stability ---------------------------------

TEST(DatagenProperties, QuestSupportsScaleWithTransactions) {
  // Relative item supports should be (approximately) invariant to D.
  datagen::QuestParams base;
  base.num_transactions = 4000;
  base.num_items = 150;
  base.num_patterns = 40;
  const auto small_db = datagen::generate_quest(base);
  base.num_transactions = 16000;
  const auto large_db = datagen::generate_quest(base);

  // Compare the most frequent item's relative support.
  auto top_support = [](const fim::TransactionDB& db) {
    std::map<fim::Item, u64> counts;
    for (const auto& t : db.transactions()) {
      for (fim::Item i : t) ++counts[i];
    }
    u64 top = 0;
    for (const auto& [item, c] : counts) top = std::max(top, c);
    return static_cast<double>(top) / static_cast<double>(db.size());
  };
  EXPECT_NEAR(top_support(small_db), top_support(large_db), 0.03);
}

TEST(DatagenProperties, BenchmarkDepthStableAcrossSeeds) {
  // The figure benches depend on the mining depth; it must not collapse
  // under a different seed.
  for (u64 seed : {11ull, 22ull, 33ull}) {
    const auto mushroom = datagen::make_mushroom(0.25, seed);
    fim::AprioriOptions opt;
    opt.min_support = mushroom.paper_min_support;
    const auto run = fim::apriori_mine(mushroom.db, opt);
    EXPECT_GE(run.itemsets.max_k(), 7u) << "seed " << seed;
    EXPECT_LE(run.itemsets.max_k(), 9u) << "seed " << seed;
  }
}

TEST(DatagenProperties, ReplicationScalesEverySupportExactly) {
  const auto bench = datagen::make_mushroom(0.05);
  fim::AprioriOptions opt;
  opt.min_support = bench.paper_min_support;
  const auto base = fim::apriori_mine(bench.db, opt).itemsets;
  const auto tripled =
      fim::apriori_mine(bench.db.replicate(3), opt).itemsets;
  ASSERT_EQ(tripled.total(), base.total());
  for (const auto& [itemset, support] : base.sorted()) {
    EXPECT_EQ(tripled.support_of(itemset), 3 * support);
  }
}

}  // namespace
}  // namespace yafim
