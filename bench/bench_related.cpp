// The algorithm landscape of the paper's related work (§III), measured on
// one substrate: total simulated time, job/stage structure, and traffic
// for every parallel miner in the repository, on the same datasets.
//
//   k-phase MapReduce:  MRApriori (= SPC), FPC, DPC       [16, 17]
//   one-phase MapReduce: SON/PSON (2 jobs)                [15]
//   MapReduce hybrid:    BigFIM (k jobs + 1 Eclat job)    [24]
//   in-memory dataflow:  Dist-Eclat                       [24]
//                        YAFIM (this paper)
//
// All eight produce identical itemsets (CHECKed here, proven in tests).
#include "common.h"
#include "fim/apriori_seq.h"
#include "fim/big_fim.h"
#include "fim/dist_eclat.h"
#include "fim/pfp.h"
#include "fim/son.h"

using namespace yafim;
using namespace yafim::benchharness;

namespace {

struct Row {
  std::string algorithm;
  std::string family;
  double seconds = 0;
  u64 jobs_or_passes = 0;
  u64 shuffle_mb = 0;
  u64 broadcast_mb = 0;
};

template <typename MineFn>
Row measure(const char* name, const char* family,
            const fim::FrequentItemsets& reference, MineFn mine) {
  engine::Context ctx(
      engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
  simfs::SimFS fs(ctx.cluster());
  const fim::MiningRun run = mine(ctx, fs);
  YAFIM_CHECK(run.itemsets.same_itemsets(reference),
              "engines disagree -- correctness bug");
  u32 jobs = 0;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.fixed_overhead_s > 0) ++jobs;
  }
  Row row;
  row.algorithm = name;
  row.family = family;
  row.seconds = run.total_seconds();
  row.jobs_or_passes = jobs ? jobs : run.passes.size();
  row.shuffle_mb = ctx.report().total_shuffle_bytes() >> 20;
  row.broadcast_mb = ctx.report().total_broadcast_bytes() >> 20;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv, /*default_scale=*/0.5);

  std::printf("== Related-work algorithm landscape (12 nodes x 4 cores, "
              "scale=%.2f) ==\n",
              args.scale);
  std::printf("jobs = MR job startups paid (passes for pure-dataflow "
              "miners)\n\n");

  std::vector<datagen::BenchmarkDataset> benches;
  benches.push_back(datagen::make_mushroom(args.scale));
  benches.push_back(datagen::make_medical(args.scale));

  for (const auto& bench : benches) {
    const double sup = bench.paper_min_support;
    fim::AprioriOptions ref_opt;
    ref_opt.min_support = sup;
    const auto reference = fim::apriori_mine(bench.db, ref_opt).itemsets;

    std::printf("%s: Sup = %s, %llu frequent itemsets, depth %u\n",
                bench.name.c_str(), support_pct(sup).c_str(),
                (unsigned long long)reference.total(), reference.max_k());
    Table table({"algorithm", "family", "jobs", "shuffle MB", "bcast MB",
                 "total(s)", "vs YAFIM"});

    std::vector<Row> rows;
    rows.push_back(measure("YAFIM", "Spark RDD", reference,
                           [&](auto& ctx, auto& fs) {
                             fim::YafimOptions opt;
                             opt.min_support = sup;
                             return fim::yafim_mine(ctx, fs, bench.db, opt);
                           }));
    rows.push_back(measure("PFP (MLlib's)", "Spark RDD", reference,
                           [&](auto& ctx, auto& fs) {
                             fim::PfpOptions opt;
                             opt.min_support = sup;
                             return fim::pfp_mine(ctx, fs, bench.db, opt).run;
                           }));
    rows.push_back(measure("Dist-Eclat", "Spark RDD", reference,
                           [&](auto& ctx, auto& fs) {
                             fim::DistEclatOptions opt;
                             opt.min_support = sup;
                             return fim::dist_eclat_mine(ctx, fs, bench.db,
                                                         opt)
                                 .run;
                           }));
    for (const auto& [name, strategy] :
         {std::pair{"MRApriori/SPC", fim::CombineStrategy::kSinglePass},
          std::pair{"FPC", fim::CombineStrategy::kFixedPasses},
          std::pair{"DPC", fim::CombineStrategy::kDynamic}}) {
      fim::MrAprioriOptions opt;
      opt.min_support = sup;
      opt.combining.strategy = strategy;
      rows.push_back(measure(name, "k-phase MR", reference,
                             [&](auto& ctx, auto& fs) {
                               return fim::mr_apriori_mine(ctx, fs, bench.db,
                                                           opt);
                             }));
    }
    rows.push_back(measure("SON/PSON", "one-phase MR", reference,
                           [&](auto& ctx, auto& fs) {
                             fim::SonOptions opt;
                             opt.min_support = sup;
                             return fim::son_mine(ctx, fs, bench.db, opt).run;
                           }));
    rows.push_back(measure("BigFIM", "hybrid MR", reference,
                           [&](auto& ctx, auto& fs) {
                             fim::BigFimOptions opt;
                             opt.min_support = sup;
                             return fim::big_fim_mine(ctx, fs, bench.db, opt)
                                 .run;
                           }));

    const double yafim_s = rows[0].seconds;
    for (const Row& row : rows) {
      table.add_row({row.algorithm, row.family,
                     Table::num(row.jobs_or_passes),
                     Table::num(row.shuffle_mb),
                     Table::num(row.broadcast_mb), Table::num(row.seconds),
                     Table::num(row.seconds / yafim_s, 2) + "x"});
    }
    print_table(table, args);
    std::printf("\n");
  }
  return 0;
}
