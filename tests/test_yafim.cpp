// Tests for YAFIM on the RDD engine: exactness against the sequential
// reference (the paper's correctness claim), pass statistics, ablation
// modes, and the structure of the recorded simulated-cost stages.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "datagen/benchmarks.h"
#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/apriori_seq.h"
#include "fim/candidate_gen.h"
#include "fim/hash_tree.h"
#include "fim/yafim.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  return opts;
}

TransactionDB random_db(u32 universe, int transactions, double density,
                        u64 seed) {
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < transactions; ++i) {
    Transaction t;
    for (u32 item = 0; item < universe; ++item) {
      if (rng.bernoulli(density)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<Item>(rng.below(universe)));
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

TEST(Yafim, MatchesSequentialApriori) {
  const auto db = random_db(16, 200, 0.35, 100);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.2;
  const auto run = yafim_mine(ctx, fs, db, opt);

  EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets))
      << "yafim=" << run.itemsets.total() << " seq=" << seq.itemsets.total();
  EXPECT_GT(run.itemsets.total(), 0u);
}

TEST(Yafim, EmptyDatabase) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.5;
  const auto run = yafim_mine(ctx, fs, TransactionDB(), opt);
  EXPECT_EQ(run.itemsets.total(), 0u);
  EXPECT_TRUE(run.passes.empty());
}

TEST(Yafim, NothingFrequent) {
  // Every item unique: nothing reaches 50% support over 4 transactions.
  TransactionDB db({{1}, {2}, {3}, {4}});
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.5;
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(run.itemsets.total(), 0u);
  ASSERT_EQ(run.passes.size(), 1u);
  EXPECT_EQ(run.passes[0].frequent, 0u);
}

TEST(Yafim, PassStatsConsistentWithResult) {
  const auto db = random_db(14, 150, 0.4, 7);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.25;
  const auto run = yafim_mine(ctx, fs, db, opt);

  // The final pass may count candidates and find none frequent, so the
  // pass list is max_k or max_k + 1 entries long.
  ASSERT_GE(run.passes.size(), run.itemsets.max_k());
  ASSERT_LE(run.passes.size(), run.itemsets.max_k() + 1u);
  for (size_t i = 0; i < run.passes.size(); ++i) {
    const auto& pass = run.passes[i];
    EXPECT_EQ(pass.k, i + 1);
    EXPECT_EQ(pass.frequent, run.itemsets.level(pass.k).size());
    EXPECT_GE(pass.candidates, pass.frequent);
    EXPECT_GT(pass.sim_seconds, 0.0);
  }
  EXPECT_GT(run.total_seconds(), 0.0);
  EXPECT_GE(run.setup_seconds, 0.0);
}

TEST(Yafim, AblationsPreserveExactness) {
  const auto db = random_db(14, 150, 0.4, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.25;
  const auto seq = apriori_mine(db, sopt);

  for (const bool use_hash_tree : {true, false}) {
    for (const bool cache : {true, false}) {
      engine::Context ctx(small_cluster());
      simfs::SimFS fs(ctx.cluster());
      YafimOptions opt;
      opt.min_support = 0.25;
      opt.use_hash_tree = use_hash_tree;
      opt.cache_transactions = cache;
      const auto run = yafim_mine(ctx, fs, db, opt);
      EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets))
          << "hash_tree=" << use_hash_tree << " cache=" << cache;
    }
  }
}

TEST(Yafim, NoCacheCostsMoreSimTime) {
  const auto db = random_db(14, 400, 0.4, 9);
  double cached_s = 0, uncached_s = 0;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    cached_s = yafim_mine(ctx, fs, db, opt).total_seconds();
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    opt.cache_transactions = false;
    uncached_s = yafim_mine(ctx, fs, db, opt).total_seconds();
  }
  EXPECT_GT(uncached_s, cached_s);
}

TEST(Yafim, BroadcastBytesRecordedEachPass) {
  const auto db = random_db(12, 150, 0.5, 11);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.3;
  const auto run = yafim_mine(ctx, fs, db, opt);
  ASSERT_GT(run.passes.size(), 1u);  // must reach phase II for broadcasts
  EXPECT_GT(ctx.report().total_broadcast_bytes(), 0u);
  // DFS was read exactly once (the phase-0 load).
  EXPECT_EQ(ctx.report().total_dfs_read_bytes(), db.serialize().size());
}

TEST(Yafim, NaiveShipModeStillExactButSlower) {
  const auto db = random_db(12, 200, 0.5, 13);
  AprioriOptions sopt;
  sopt.min_support = 0.3;
  const auto seq = apriori_mine(db, sopt);

  double broadcast_s = 0, naive_s = 0;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.3;
    broadcast_s = yafim_mine(ctx, fs, db, opt).total_seconds();
  }
  {
    auto opts = small_cluster();
    opts.share_mode = engine::ShareMode::kNaiveShip;
    engine::Context ctx(opts);
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.3;
    const auto run = yafim_mine(ctx, fs, db, opt);
    naive_s = run.total_seconds();
    EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets));
  }
  EXPECT_GT(naive_s, broadcast_s);
}

/// Load plus Phase I as perfbench's traced replay (perfbench/bench.cpp)
/// builds them: yafim_mine's stages and labels, with every item occurrence
/// keyed by a one-item Itemset.
std::vector<std::pair<Itemset, u64>> itemset_keyed_phase_one(
    engine::Context& ctx, simfs::SimFS& fs, const std::string& path,
    double min_support) {
  using CountPair = std::pair<Itemset, u64>;
  ctx.set_spill_fs(&fs);
  ctx.set_pass(0);
  const std::vector<u8> raw = fs.read(path);
  TransactionDB db = TransactionDB::deserialize(raw);
  sim::StageRecord parse;
  parse.label = "load:textFile+parse";
  parse.kind = sim::StageKind::kSparkStage;
  parse.pass = ctx.pass();
  parse.tasks =
      sim::split_work(db.size() * (1 + ctx.cluster().record_parse_work),
                      ctx.default_partitions());
  parse.dfs_read_bytes = raw.size();
  ctx.record(std::move(parse));
  const u64 min_count = db.min_support_count(min_support);
  auto transactions = ctx.parallelize(db.release())
                          .map([](const Transaction& t) { return t; })
                          .named("transactions");
  transactions.persist();
  ctx.memory_budget().note_cached(raw.size());

  ctx.set_pass(1);
  return transactions.flat_map([](const Transaction& t) { return t; })
      .named("phase1:items")
      .map([](const Item& i) { return CountPair(Itemset{i}, 1); })
      .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0, ItemsetHash{},
                     "phase1:count")
      .named("phase1:counts")
      .filter([min_count](const CountPair& kv) {
        return kv.second >= min_count;
      })
      .named("phase1:frequent")
      .collect("phase1:collect");
}

TEST(Yafim, PhaseOnePricesLikeTheItemsetKeyedReplay) {
  // perfbench's traced replay fails its run unless this chain prices what
  // yafim_mine prices; here the two must record the same stages.
  const auto db = random_db(60, 500, 0.15, 29);
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  YafimOptions opt;
  opt.min_support = 0.1;
  opt.stop_after_pass = 1;

  engine::Context mine_ctx(opts);
  simfs::SimFS mine_fs(mine_ctx.cluster());
  const auto run = yafim_mine(mine_ctx, mine_fs, db, opt);

  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  fs.write("hdfs://data/tx", db.serialize());
  const auto items =
      itemset_keyed_phase_one(ctx, fs, "hdfs://data/tx", opt.min_support);
  ASSERT_GT(items.size(), 1u);
  EXPECT_EQ(run.itemsets.level(1).size(), items.size());
  for (const auto& [itemset, support] : items) {
    EXPECT_EQ(run.itemsets.support_of(itemset), support);
  }

  const auto& mine = mine_ctx.report().stages();
  const auto& replay = ctx.report().stages();
  ASSERT_EQ(mine.size(), replay.size());
  bool shuffled = false;
  for (size_t i = 0; i < mine.size(); ++i) {
    SCOPED_TRACE(replay[i].label);
    EXPECT_EQ(mine[i].label, replay[i].label);
    EXPECT_EQ(mine[i].kind, replay[i].kind);
    EXPECT_EQ(mine[i].pass, replay[i].pass);
    ASSERT_EQ(mine[i].tasks.size(), replay[i].tasks.size());
    for (size_t t = 0; t < mine[i].tasks.size(); ++t) {
      EXPECT_EQ(mine[i].tasks[t].work, replay[i].tasks[t].work);
    }
    EXPECT_EQ(mine[i].shuffle_bytes, replay[i].shuffle_bytes);
    EXPECT_EQ(mine[i].dfs_read_bytes, replay[i].dfs_read_bytes);
    shuffled |= mine[i].shuffle_bytes > 0;
  }
  EXPECT_TRUE(shuffled);
  const double mine_s = mine_ctx.report().total_seconds(mine_ctx.cost_model());
  const double replay_s = ctx.report().total_seconds(ctx.cost_model());
  EXPECT_EQ(std::memcmp(&mine_s, &replay_s, sizeof(double)), 0)
      << mine_s << " vs " << replay_s;
}

TEST(Yafim, ApGenPricesLikeTheReplay) {
  // perfbench's traced replay prices each pass's driver stage as the
  // apriori_gen(std::vector<Itemset>) adapter plus a HashTree build in one
  // work::Scope, and fails its run unless it prices what yafim_mine
  // prices. A T10-shaped database keeps the prefix-class path on every
  // pass from k = 3 on; Chess at 80% keeps the join at k = 11 and 12.
  u32 classed = 0;
  u32 joined = 0;
  for (const auto& [db, min_support] :
       {std::pair{datagen::make_t10i4d100k(0.05).db, 0.002},
        std::pair{datagen::make_chess().db, 0.8}}) {
    engine::Context::Options opts = small_cluster();
    opts.fault = engine::FaultProfile{};
    engine::Context ctx(opts);
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = min_support;
    const MiningRun run = yafim_mine(ctx, fs, db, opt);
    u32 gen_stages = 0;
    for (const sim::StageRecord& stage : ctx.report().stages()) {
      if (!stage.label.ends_with(":ap_gen+buildHashTree")) continue;
      ++gen_stages;
      const u32 k = stage.pass;
      std::vector<Itemset> frequent;
      for (const auto& [itemset, support] : run.itemsets.level(k - 1)) {
        frequent.push_back(itemset);
      }
      engine::work::Scope replay;
      const HashTree tree(apriori_gen(frequent, k), opt.branching,
                          opt.leaf_capacity);
      EXPECT_EQ(stage.driver_work, replay.measured()) << "k=" << k;
      if (k >= 3) {
        const u64 join =
            detail::join_candidates(to_sorted_rows(frequent), k).units;
        (stage.driver_work < join ? classed : joined) += 1;
      }
    }
    EXPECT_GE(gen_stages, 5u);
  }
  EXPECT_GT(classed, 0u);
  EXPECT_GT(joined, 0u);
}

TEST(Yafim, MineFromExplicitDfsPath) {
  const auto db = random_db(10, 100, 0.5, 17);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("hdfs://data/tx", db.serialize());
  YafimOptions opt;
  opt.min_support = 0.3;
  const auto run = yafim_mine(ctx, fs, "hdfs://data/tx", opt);
  EXPECT_GT(run.itemsets.total(), 0u);
}

TEST(Yafim, PartitionCountOptionRespected) {
  const auto db = random_db(10, 64, 0.5, 19);
  // Exact task counts: ambient straggler injection would add speculative
  // task copies to the stage record, so opt out of the env fault profile.
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.3;
  opt.partitions = 4;
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_GT(run.itemsets.total(), 0u);
  // The phase-1 map-combine stage must have exactly 4 tasks.
  bool found = false;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.label == "phase1:count:map-combine") {
      EXPECT_EQ(stage.tasks.size(), 4u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Yafim, CombinedPassesStayExact) {
  const auto db = random_db(14, 250, 0.75, 23);
  AprioriOptions sopt;
  sopt.min_support = 0.25;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GE(seq.itemsets.max_k(), 4u);

  std::vector<PassCombining> combinings(4);
  combinings[1].strategy = CombineStrategy::kFixedPasses;
  combinings[1].fixed_passes = 2;
  combinings[2].strategy = CombineStrategy::kDynamic;
  combinings[3].strategy = CombineStrategy::kDynamic;
  combinings[3].dynamic_candidate_budget = 100;
  for (const PassCombining& combining : combinings) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    opt.combining = combining;
    const auto run = yafim_mine(ctx, fs, db, opt);
    const std::string what =
        "strategy=" + std::to_string(static_cast<int>(combining.strategy)) +
        " budget=" + std::to_string(combining.dynamic_candidate_budget);
    EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets)) << what;
    // Every level still gets a PassStats entry with exact counts.
    for (const auto& pass : run.passes) {
      EXPECT_EQ(pass.frequent, run.itemsets.level(pass.k).size()) << what;
    }
  }
}

TEST(Yafim, CombinedPassesCutStageCount) {
  const auto db = random_db(14, 250, 0.75, 29);
  u64 stages_plain = 0, stages_combined = 0;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    yafim_mine(ctx, fs, db, opt);
    stages_plain = ctx.report().stages().size();
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.25;
    opt.combining.strategy = CombineStrategy::kDynamic;
    yafim_mine(ctx, fs, db, opt);
    stages_combined = ctx.report().stages().size();
  }
  EXPECT_LT(stages_combined, stages_plain);
}

/// Parameterised exactness sweep across densities / supports / seeds.
class YafimSweep
    : public ::testing::TestWithParam<std::tuple<double, double, u32>> {};

TEST_P(YafimSweep, AlwaysMatchesReference) {
  const auto [density, min_support, seed] = GetParam();
  const auto db = random_db(15, 120, density, seed);
  AprioriOptions sopt;
  sopt.min_support = min_support;
  const auto seq = apriori_mine(db, sopt);

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = min_support;
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(seq.itemsets));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, YafimSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.75),
                       ::testing::Values(0.1, 0.3, 0.55),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
