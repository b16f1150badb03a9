// End-to-end integration tests across the whole stack: generate a dataset,
// stage it on the simulated HDFS, mine it with every engine, compare, replay
// costs across cluster sizes, recover from faults, and produce rules --
// i.e. the paper's full pipeline in miniature.
#include <gtest/gtest.h>

#include "datagen/benchmarks.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/big_fim.h"
#include "fim/dist_eclat.h"
#include "fim/pfp.h"
#include "fim/son.h"
#include "fim/eclat.h"
#include "fim/fp_growth.h"
#include "fim/mr_apriori.h"
#include "fim/rules.h"
#include "fim/yafim.h"

namespace yafim {
namespace {

engine::Context::Options paper_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::paper();
  opts.host_threads = 4;
  return opts;
}

TEST(Integration, FiveEnginesAgreeOnMushroom) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  const double sup = bench.paper_min_support;

  fim::AprioriOptions aopt;
  aopt.min_support = sup;
  const auto apriori = fim::apriori_mine(bench.db, aopt);
  const auto fp = fim::fp_growth_mine(bench.db, sup);
  const auto eclat = fim::eclat_mine(bench.db, sup);

  engine::Context ctx1(paper_cluster()), ctx2(paper_cluster());
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());
  fim::YafimOptions yopt;
  yopt.min_support = sup;
  const auto yafim_run = fim::yafim_mine(ctx1, fs1, bench.db, yopt);
  fim::MrAprioriOptions mopt;
  mopt.min_support = sup;
  const auto mr_run = fim::mr_apriori_mine(ctx2, fs2, bench.db, mopt);

  EXPECT_GT(apriori.itemsets.total(), 100u);
  EXPECT_TRUE(apriori.itemsets.same_itemsets(fp.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(eclat.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(yafim_run.itemsets));
  EXPECT_TRUE(apriori.itemsets.same_itemsets(mr_run.itemsets));
}

TEST(Integration, YafimBeatsMrByPaperMagnitude) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  // A calibrated performance ratio: pin injection off so retry backoffs
  // (which tax the many-small-task Spark side hardest) don't skew it when
  // the suite runs under the CI fault matrix.
  auto opts = paper_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx1(opts), ctx2(opts);
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());

  fim::YafimOptions yopt;
  yopt.min_support = bench.paper_min_support;
  const double yafim_s =
      fim::yafim_mine(ctx1, fs1, bench.db, yopt).total_seconds();
  fim::MrAprioriOptions mopt;
  mopt.min_support = bench.paper_min_support;
  const double mr_s =
      fim::mr_apriori_mine(ctx2, fs2, bench.db, mopt).total_seconds();

  const double speedup = mr_s / yafim_s;
  // Paper: ~18x average, ~21x on MushRoom. Allow a generous band around
  // the reproduction.
  EXPECT_GT(speedup, 8.0);
  EXPECT_LT(speedup, 80.0);
}

TEST(Integration, ReplayAcrossClusterSizesIsMonotone) {
  // The Fig. 5 methodology: record once, price under 4..12 nodes.
  const auto bench = datagen::make_mushroom(/*scale=*/0.25);
  engine::Context ctx(paper_cluster());
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  fim::yafim_mine(ctx, fs, bench.db, opt);

  double prev = 1e100;
  for (u32 nodes : {4u, 6u, 8u, 10u, 12u}) {
    const sim::CostModel model{sim::ClusterConfig::with_nodes(nodes)};
    const double t = ctx.report().total_seconds(model);
    EXPECT_LT(t, prev) << nodes << " nodes";
    prev = t;
  }
}

TEST(Integration, SizeupKeepsResultsAndGrowsTime) {
  // The Fig. 4 methodology: replicated data, fixed cluster.
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;

  double prev_seconds = 0.0;
  fim::FrequentItemsets first_sets;
  for (u32 times : {1u, 2u, 4u}) {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    const auto run =
        fim::yafim_mine(ctx, fs, bench.db.replicate(times), opt);
    if (times == 1) {
      first_sets = run.itemsets;
    } else {
      // Replication preserves relative supports: the same itemsets are
      // frequent, with absolute supports scaled by `times`.
      ASSERT_EQ(run.itemsets.total(), first_sets.total());
      for (const auto& [itemset, support] : first_sets.sorted()) {
        EXPECT_EQ(run.itemsets.support_of(itemset), support * times);
      }
    }
    EXPECT_GE(run.total_seconds(), prev_seconds);
    prev_seconds = run.total_seconds();
  }
}

TEST(Integration, FaultDuringMiningDoesNotChangeResults) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  // Baseline without faults.
  fim::FrequentItemsets clean;
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::YafimOptions opt;
    opt.min_support = bench.paper_min_support;
    clean = fim::yafim_mine(ctx, fs, bench.db, opt).itemsets;
  }
  // Mine the same data through a cached RDD, killing executors between
  // actions.
  engine::Context ctx(paper_cluster());
  auto transactions =
      ctx.parallelize(std::vector<fim::Transaction>(
                          bench.db.transactions().begin(),
                          bench.db.transactions().end()),
                      24)
          .map([](const fim::Transaction& t) { return t; });
  transactions.persist();
  (void)transactions.count();  // populate the cache

  ctx.fault_injector().kill_executor(3);
  ctx.fault_injector().kill_executor(7);

  // Recount item frequencies post-fault and compare with clean L1.
  auto counts =
      transactions
          .flat_map([](const fim::Transaction& t) { return t; })
          .map([](const fim::Item& i) {
            return std::pair<fim::Itemset, u64>(fim::Itemset{i}, 1);
          })
          .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                         fim::ItemsetHash{})
          .collect_as_map<fim::ItemsetHash>();
  EXPECT_GT(ctx.fault_injector().recomputations(), 0u);
  for (const auto& [itemset, support] : clean.level(1)) {
    EXPECT_EQ(counts.at(itemset), support);
  }
}

TEST(Integration, MedicalPipelineProducesComorbidityRules) {
  datagen::MedicalParams params;
  params.num_cases = 4000;
  const auto data = datagen::generate_medical(params);

  engine::Context ctx(paper_cluster());
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = 0.03;
  const auto run = fim::yafim_mine(ctx, fs, data.db, opt);

  fim::RuleOptions ropt;
  ropt.min_confidence = 0.6;
  const auto rules = fim::generate_rules(run.itemsets, ropt);
  ASSERT_FALSE(rules.empty());

  // At least one high-confidence rule must relate codes of the most
  // prevalent comorbidity cluster.
  const auto& cluster = data.clusters[0];
  bool found = false;
  for (const auto& rule : rules) {
    if (rule.antecedent.size() == 1 && rule.consequent.size() == 1 &&
        fim::contains_all(cluster, rule.antecedent) &&
        fim::contains_all(cluster, rule.consequent)) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no intra-cluster rule among " << rules.size();
}

TEST(Integration, AllNineEnginesAgreeOnBenchmark) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.15);
  const double sup = bench.paper_min_support;
  fim::AprioriOptions ref_opt;
  ref_opt.min_support = sup;
  const auto ref = fim::apriori_mine(bench.db, ref_opt).itemsets;

  EXPECT_TRUE(fim::fp_growth_mine(bench.db, sup).itemsets.same_itemsets(ref));
  EXPECT_TRUE(fim::eclat_mine(bench.db, sup).itemsets.same_itemsets(ref));
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::YafimOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::yafim_mine(ctx, fs, bench.db, opt).itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::MrAprioriOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::mr_apriori_mine(ctx, fs, bench.db, opt)
                    .itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::SonOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::son_mine(ctx, fs, bench.db, opt).run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::DistEclatOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::dist_eclat_mine(ctx, fs, bench.db, opt)
                    .run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::BigFimOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(fim::big_fim_mine(ctx, fs, bench.db, opt)
                    .run.itemsets.same_itemsets(ref));
  }
  {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::PfpOptions opt;
    opt.min_support = sup;
    EXPECT_TRUE(
        fim::pfp_mine(ctx, fs, bench.db, opt).run.itemsets.same_itemsets(ref));
  }
}

TEST(Integration, CombiningStrategiesAgreeOnBenchmark) {
  const auto bench = datagen::make_mushroom(/*scale=*/0.1);
  fim::FrequentItemsets reference;
  {
    fim::AprioriOptions opt;
    opt.min_support = bench.paper_min_support;
    reference = fim::apriori_mine(bench.db, opt).itemsets;
  }
  for (const auto strategy :
       {fim::CombineStrategy::kSinglePass, fim::CombineStrategy::kFixedPasses,
        fim::CombineStrategy::kDynamic}) {
    engine::Context ctx(paper_cluster());
    simfs::SimFS fs(ctx.cluster());
    fim::MrAprioriOptions opt;
    opt.min_support = bench.paper_min_support;
    opt.combining.strategy = strategy;
    EXPECT_TRUE(fim::mr_apriori_mine(ctx, fs, bench.db, opt)
                    .itemsets.same_itemsets(reference));
  }
}

}  // namespace
}  // namespace yafim
