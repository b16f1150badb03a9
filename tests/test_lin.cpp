// Tests for Lin et al.'s pass combining (SPC / FPC / DPC) on MRApriori's
// job driver: every strategy must stay exact while trading job count
// against speculative candidate counting.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "datagen/benchmarks.h"
#include "fim/apriori_seq.h"
#include "fim/mr_apriori.h"
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

TransactionDB deep_db(u64 seed) {
  // Two overlapping planted lattices: items 0-5 at 60% and items 4-9 at
  // 45%. Cross-lattice pairs land below the 40% threshold, so combined
  // jobs that generate candidates-from-candidates count speculative sets a
  // per-level run would have pruned.
  Rng rng(seed);
  std::vector<Transaction> tx;
  for (int i = 0; i < 300; ++i) {
    Transaction t;
    if (rng.bernoulli(0.6)) {
      for (u32 item = 0; item < 6; ++item) t.push_back(item);
    }
    if (rng.bernoulli(0.45)) {
      for (u32 item = 4; item < 10; ++item) t.push_back(item);
    }
    for (u32 item = 10; item < 18; ++item) {
      if (rng.bernoulli(0.2)) t.push_back(item);
    }
    if (t.empty()) t.push_back(10);
    fim::canonicalize(t);
    tx.push_back(std::move(t));
  }
  return TransactionDB(std::move(tx));
}

struct CombinedRun {
  MiningRun run;
  /// MapReduce job startups the run paid.
  u32 jobs = 0;
  /// Candidates counted over every level.
  u64 candidates = 0;
};

CombinedRun run_strategy(const TransactionDB& db, CombineStrategy strategy,
                         double min_support, u64 dynamic_budget = 20000) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  MrAprioriOptions opt;
  opt.min_support = min_support;
  opt.combining.strategy = strategy;
  opt.combining.dynamic_candidate_budget = dynamic_budget;
  CombinedRun res;
  res.run = mr_apriori_mine(ctx, fs, db, opt);
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    if (stage.fixed_overhead_s > 0) ++res.jobs;
  }
  for (const PassStats& pass : res.run.passes) {
    res.candidates += pass.candidates;
  }
  return res;
}

TEST(PassCombining, AllStrategiesExact) {
  const auto db = deep_db(1);
  AprioriOptions sopt;
  sopt.min_support = 0.4;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GE(seq.itemsets.max_k(), 5u);

  for (const auto strategy :
       {CombineStrategy::kSinglePass, CombineStrategy::kFixedPasses,
        CombineStrategy::kDynamic}) {
    const auto res = run_strategy(db, strategy, 0.4);
    EXPECT_TRUE(res.run.itemsets.same_itemsets(seq.itemsets))
        << "strategy=" << static_cast<int>(strategy)
        << " got=" << res.run.itemsets.total()
        << " want=" << seq.itemsets.total();
  }
}

TEST(PassCombining, SpcRunsOneJobPerLevel) {
  const auto db = deep_db(2);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  EXPECT_EQ(spc.jobs, spc.run.itemsets.max_k());
}

TEST(PassCombining, CombiningReducesJobCount) {
  const auto db = deep_db(3);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  const auto fpc = run_strategy(db, CombineStrategy::kFixedPasses, 0.4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  EXPECT_LT(fpc.jobs, spc.jobs);
  EXPECT_LT(dpc.jobs, spc.jobs);
}

TEST(PassCombining, CombiningCountsSpeculativeCandidates) {
  const auto db = deep_db(4);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  // Candidates generated from unverified candidates include infrequent
  // ones that a per-level run would have pruned.
  EXPECT_GT(dpc.candidates, spc.candidates);
}

TEST(PassCombining, CombiningSavesSimTimeWhenStartupDominates) {
  const auto db = deep_db(5);
  const auto spc = run_strategy(db, CombineStrategy::kSinglePass, 0.4);
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4);
  // Small dataset, deep lattice: job startup dominates, so fewer jobs win.
  EXPECT_LT(dpc.run.total_seconds(), spc.run.total_seconds());
}

TEST(PassCombining, DynamicBudgetLimitsBatch) {
  const auto db = deep_db(6);
  // Degenerate budget: one level per job.
  const auto dpc = run_strategy(db, CombineStrategy::kDynamic, 0.4, 1);
  EXPECT_EQ(dpc.jobs, dpc.run.itemsets.max_k());
}

TEST(PassCombining, PassStatsCoverEveryLevel) {
  const auto db = deep_db(7);
  const auto fpc = run_strategy(db, CombineStrategy::kFixedPasses, 0.4);
  ASSERT_EQ(fpc.run.passes.size(), fpc.run.itemsets.max_k());
  for (size_t i = 0; i < fpc.run.passes.size(); ++i) {
    EXPECT_EQ(fpc.run.passes[i].k, i + 1);
    EXPECT_EQ(fpc.run.passes[i].frequent,
              fpc.run.itemsets.level(static_cast<u32>(i + 1)).size());
  }
}

TEST(PassCombining, EmptyDatabase) {
  const auto res =
      run_strategy(TransactionDB(), CombineStrategy::kDynamic, 0.1);
  EXPECT_EQ(res.run.itemsets.total(), 0u);
  EXPECT_EQ(res.jobs, 0u);
}

/// Each ap_gen stage's driver work, keyed by its pass tag, over the stages
/// whose label is `label_of(pass)`.
template <typename LabelOf>
std::map<u32, u64> ap_gen_work(const engine::Context& ctx, LabelOf label_of) {
  std::map<u32, u64> work;
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    if (stage.label == label_of(stage.pass)) {
      work[stage.pass] = stage.driver_work;
    }
  }
  return work;
}

// Both substrates run one level-wise driver (fim/levelwise.h), so under
// every pass combining they generate the same candidate levels per pass,
// at the same driver price, and keep the same survivors: the paper's
// "exactly same as MRApriori", pass by pass.
TEST(PassCombining, YafimAndMrAprioriGenerateTheSamePasses) {
  const datagen::BenchmarkDataset t10 = datagen::make_t10i4d100k(0.05);
  const datagen::BenchmarkDataset chess = datagen::make_chess();
  const std::pair<const TransactionDB*, double> runs[] = {{&t10.db, 0.002},
                                                          {&chess.db, 0.8}};
  for (const auto& [db, min_support] : runs) {
    for (const auto strategy :
         {CombineStrategy::kSinglePass, CombineStrategy::kFixedPasses,
          CombineStrategy::kDynamic}) {
      SCOPED_TRACE(::testing::Message()
                   << "transactions=" << db->size() << " strategy="
                   << static_cast<int>(strategy));
      engine::Context yctx(small_cluster());
      simfs::SimFS yfs(yctx.cluster());
      YafimOptions yopt;
      yopt.min_support = min_support;
      yopt.combining.strategy = strategy;
      const MiningRun yafim = yafim_mine(yctx, yfs, *db, yopt);

      engine::Context mctx(small_cluster());
      simfs::SimFS mfs(mctx.cluster());
      MrAprioriOptions mopt;
      mopt.min_support = min_support;
      mopt.combining.strategy = strategy;
      const MiningRun mr = mr_apriori_mine(mctx, mfs, *db, mopt);

      ASSERT_EQ(yafim.passes.size(), mr.passes.size());
      ASSERT_GE(yafim.passes.size(), 3u);
      for (size_t i = 0; i < yafim.passes.size(); ++i) {
        EXPECT_EQ(yafim.passes[i].k, mr.passes[i].k);
        EXPECT_EQ(yafim.passes[i].candidates, mr.passes[i].candidates);
        EXPECT_EQ(yafim.passes[i].frequent, mr.passes[i].frequent);
      }
      EXPECT_TRUE(yafim.itemsets.same_itemsets(mr.itemsets));

      const std::map<u32, u64> yafim_gen = ap_gen_work(yctx, [](u32 k) {
        return "pass" + std::to_string(k) + ":ap_gen+buildHashTree";
      });
      const std::map<u32, u64> mr_gen = ap_gen_work(mctx, [](u32 k) {
        return "mrapriori:ap_gen L" + std::to_string(k);
      });
      EXPECT_FALSE(yafim_gen.empty());
      EXPECT_EQ(yafim_gen, mr_gen);
    }
  }
}

/// Exactness sweep across strategies, thresholds and both substrates.
class PassCombiningSweep
    : public ::testing::TestWithParam<
          std::tuple<CombineStrategy, double, u32>> {};

TEST_P(PassCombiningSweep, MatchesReference) {
  const auto [strategy, min_support, seed] = GetParam();
  const auto db = deep_db(100 + seed);
  AprioriOptions sopt;
  sopt.min_support = min_support;
  const auto seq = apriori_mine(db, sopt);
  EXPECT_TRUE(run_strategy(db, strategy, min_support)
                  .run.itemsets.same_itemsets(seq.itemsets));

  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions yopt;
  yopt.min_support = min_support;
  yopt.combining.strategy = strategy;
  EXPECT_TRUE(
      yafim_mine(ctx, fs, db, yopt).itemsets.same_itemsets(seq.itemsets));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PassCombiningSweep,
    ::testing::Combine(::testing::Values(CombineStrategy::kSinglePass,
                                         CombineStrategy::kFixedPasses,
                                         CombineStrategy::kDynamic),
                       ::testing::Values(0.3, 0.5),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace yafim::fim
