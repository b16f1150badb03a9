// Ablation bench: quantifies the design choices DESIGN.md calls out.
//
//   1. Broadcast variables vs naive per-task shipping (paper §IV-C).
//   2. Cached transactions RDD vs re-reading from HDFS each pass (§IV-B).
//   3. Hash tree vs linear candidate scan (§IV-A, Fig. 2).
//   (1-3 run the paper's design, the itemset-keyed count mode that
//   broadcasts and probes hash trees.)
//   4. SPC vs FPC vs DPC pass combining (related work, Lin et al.) on both
//      substrates: YAFIM cluster passes and MRApriori jobs.
//   5. Phase I's count key: one-item Itemsets vs fim::Singleton, priced
//      alike, timed on the host.
//   6. Candidate generation: the join alone vs the shipped rule (prefix-class
//      bitsets when they price less), priced and timed on the host.
#include <algorithm>
#include <limits>
#include <tuple>

#include "common.h"
#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/candidate_gen.h"
#include "fim/eclat.h"
#include "fim/sampling.h"
#include "stream/miner.h"
#include "util/stopwatch.h"

using namespace yafim;
using namespace yafim::benchharness;

namespace {

constexpr std::pair<const char*, fim::CombineStrategy> kCombinings[] = {
    {"SPC", fim::CombineStrategy::kSinglePass},
    {"FPC", fim::CombineStrategy::kFixedPasses},
    {"DPC", fim::CombineStrategy::kDynamic}};

double yafim_variant(const datagen::BenchmarkDataset& bench,
                     engine::ShareMode share, bool cache, bool hash_tree,
                     u64* probe_work = nullptr) {
  engine::Context ctx(engine::Context::Options{
      .cluster = sim::ClusterConfig::paper(), .share_mode = share});
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  opt.count_mode = fim::CountMode::kItemsetKey;
  opt.cache_transactions = cache;
  opt.use_hash_tree = hash_tree;
  const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
  if (probe_work) *probe_work = ctx.report().total_work();
  return run.total_seconds();
}

/// One count-mode run; returns the pass>=2 counting-stage numbers the
/// count-mode ablation compares (sim seconds of the count/collect/
/// materialize stages, host wall-clock of the counting pipeline, and the
/// bytes the whole run's map tasks send off: shuffled, or fetched through
/// the driver's link, as a count merge that ends on the driver takes its
/// partials).
struct CountModeResult {
  double count_sim_s = 0.0;
  double count_host_s = 0.0;
  u64 shipped_bytes = 0;
  u64 itemsets = 0;
};

CountModeResult count_mode_once(const datagen::BenchmarkDataset& bench,
                                fim::CountMode mode) {
  engine::Context ctx(
      engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = bench.paper_min_support;
  opt.count_mode = mode;
  const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);

  CountModeResult res;
  res.count_host_s = run.count_host_seconds;
  res.shipped_bytes = ctx.report().total_shuffle_bytes();
  res.itemsets = run.itemsets.total();
  for (const auto& stage : ctx.report().stages()) {
    if (stage.label.ends_with(":aggregate")) {
      res.shipped_bytes += stage.driver_fetch_bytes;
    }
    if (stage.pass < 2) continue;
    const bool counting =
        stage.label.find(":count") != std::string::npos ||
        stage.label.find(":collect") != std::string::npos ||
        stage.label.find(":materialize") != std::string::npos;
    if (counting) {
      res.count_sim_s += sim::stage_seconds(stage, ctx.cost_model());
    }
  }
  return res;
}

/// count_mode_once over three mines: the host seconds are the fastest
/// mine's, the rest -- deterministic -- must agree across all three.
CountModeResult yafim_count_mode(const datagen::BenchmarkDataset& bench,
                                 fim::CountMode mode) {
  CountModeResult best = count_mode_once(bench, mode);
  for (int i = 1; i < 3; ++i) {
    const CountModeResult res = count_mode_once(bench, mode);
    YAFIM_CHECK(res.count_sim_s == best.count_sim_s &&
                    res.shipped_bytes == best.shipped_bytes &&
                    res.itemsets == best.itemsets,
                "a count-mode mine's deterministic numbers differ across "
                "runs");
    best.count_host_s = std::min(best.count_host_s, res.count_host_s);
  }
  return best;
}

/// Load plus Phase I as perfbench's traced replay (perfbench/bench.cpp)
/// still builds them: yafim_mine's stages and labels, with every item
/// occurrence keyed by a one-item Itemset. Returns the frequent items.
u64 itemset_keyed_phase_one(engine::Context& ctx, simfs::SimFS& fs,
                            const std::string& path, double min_support) {
  using CountPair = std::pair<fim::Itemset, u64>;
  ctx.set_spill_fs(&fs);
  ctx.set_pass(0);
  const std::vector<u8> raw = fs.read(path);
  fim::TransactionDB db = fim::TransactionDB::deserialize(raw);
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
                          .map([](const fim::Transaction& t) { return t; })
                          .named("transactions");
  transactions.persist();
  ctx.memory_budget().note_cached(raw.size());

  ctx.set_pass(1);
  return transactions.flat_map([](const fim::Transaction& t) { return t; })
      .named("phase1:items")
      .map([](const fim::Item& i) { return CountPair(fim::Itemset{i}, 1); })
      .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                     fim::ItemsetHash{}, "phase1:count")
      .named("phase1:counts")
      .filter([min_count](const CountPair& kv) {
        return kv.second >= min_count;
      })
      .named("phase1:frequent")
      .collect("phase1:collect")
      .size();
}

/// Load plus Phase I on a fresh context: the Itemset-keyed chain above
/// (x = 0) or yafim_mine stopped after pass 1 (x = 1). Simulated seconds of
/// everything priced, host seconds of the call.
struct PhaseOneResult {
  double sim_s = 0.0;
  double host_s = 0.0;
  u64 frequent = 0;
};

PhaseOneResult phase_one_once(simfs::SimFS& fs, const std::string& path,
                              double min_support, bool by_value) {
  engine::Context ctx(
      engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
  PhaseOneResult res;
  Stopwatch clock;
  if (by_value) {
    fim::YafimOptions opt;
    opt.min_support = min_support;
    opt.stop_after_pass = 1;
    res.frequent = fim::yafim_mine(ctx, fs, path, opt).itemsets.total();
  } else {
    res.frequent = itemset_keyed_phase_one(ctx, fs, path, min_support);
  }
  res.host_s = clock.seconds();
  res.sim_s = ctx.report().total_seconds(ctx.cost_model());
  return res;
}

/// Candidate generation over every level of one exact mine, k = 2 up to
/// one past the largest frequent itemset: the join alone (x = 0) or
/// apriori_gen_rows' rule (x = 1). Summed work units and candidates, and
/// the fastest of 3 rounds of summed host seconds. Checks, per pass, that
/// both emit the same rows and that the rule prices no more than the join.
struct ApGenResult {
  u64 units[2] = {0, 0};
  double host_s[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
  u64 candidates = 0;
};

ApGenResult ap_gen_both(const fim::TransactionDB& db, double min_support) {
  const fim::MiningRun run = fim::eclat_mine(db, min_support);
  std::vector<fim::ItemsetRows> levels;  // levels[j] holds L(j+1)
  for (u32 k = 1; k <= run.itemsets.max_k(); ++k) {
    std::vector<fim::Itemset> sets;
    for (const auto& [itemset, support] : run.itemsets.level(k)) {
      sets.push_back(itemset);
    }
    levels.push_back(fim::to_sorted_rows(sets));
  }
  ApGenResult res;
  for (int round = 0; round < 3; ++round) {
    double host[2] = {0.0, 0.0};
    for (size_t j = 0; j < levels.size(); ++j) {
      const u32 k = static_cast<u32>(j) + 2;
      Stopwatch join_clock;
      const fim::detail::Generated join =
          fim::detail::join_candidates(levels[j], k);
      host[0] += join_clock.seconds();
      engine::work::Scope scope;
      Stopwatch rule_clock;
      const fim::ItemsetRows rows = fim::apriori_gen_rows(levels[j], k);
      host[1] += rule_clock.seconds();
      YAFIM_CHECK(rows.items == join.rows.items,
                  "the join and the shipped rule emit different candidates");
      YAFIM_CHECK(scope.measured() <= join.units,
                  "the shipped rule priced a pass above the join");
      if (round == 0) {
        res.units[0] += join.units;
        res.units[1] += scope.measured();
        res.candidates += rows.size();
      }
    }
    for (int x = 0; x < 2; ++x) res.host_s[x] = std::min(res.host_s[x], host[x]);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv, /*default_scale=*/1.0);
  BenchJson json;
  json.note("bench", "ablation");

  std::printf("== Ablations (MushRoom Sup=35%% and T10I4D100K Sup=0.25%%, "
              "scale=%.2f) ==\n\n",
              args.scale);

  std::vector<datagen::BenchmarkDataset> benches;
  benches.push_back(datagen::make_mushroom(args.scale));
  benches.push_back(datagen::make_t10i4d100k(args.scale));

  std::printf("-- YAFIM design ablations, itemset-keyed hash-tree counting "
              "(total simulated seconds) --\n");
  Table table({"dataset", "paper design", "naive ship", "no cache",
               "no hash tree"});
  for (const auto& bench : benches) {
    u64 work_tree = 0, work_linear = 0;
    const double base = yafim_variant(bench, engine::ShareMode::kBroadcast,
                                      true, true, &work_tree);
    const double naive =
        yafim_variant(bench, engine::ShareMode::kNaiveShip, true, true);
    const double nocache =
        yafim_variant(bench, engine::ShareMode::kBroadcast, false, true);
    const double linear = yafim_variant(bench, engine::ShareMode::kBroadcast,
                                        true, false, &work_linear);
    table.add_row({bench.name, Table::num(base),
                   Table::num(naive) + " (" + Table::num(naive / base, 2) +
                       "x)",
                   Table::num(nocache) + " (" +
                       Table::num(nocache / base, 2) + "x)",
                   Table::num(linear) + " (" + Table::num(linear / base, 2) +
                       "x)"});
    std::printf("  %s probe work: hash tree %llu units vs linear %llu units "
                "(%.1fx saved)\n",
                bench.name.c_str(), (unsigned long long)work_tree,
                (unsigned long long)work_linear,
                static_cast<double>(work_linear) /
                    static_cast<double>(work_tree));
  }
  print_table(table, args);

  std::printf("\n-- YAFIM combined passes (our extension; Lin et al.'s "
              "pass combining on the RDD side) --\n");
  Table combine_table({"dataset", "strategy", "cluster passes", "total(s)"});
  for (const auto& bench : benches) {
    for (const auto& [name, strategy] : kCombinings) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::YafimOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.combining.strategy = strategy;
      const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
      u64 cluster_passes = 1;  // phase I
      for (const auto& stage : ctx.report().stages()) {
        if (stage.label.find(":ap_gen") != std::string::npos) {
          ++cluster_passes;
        }
      }
      combine_table.add_row({bench.name, name, Table::num(cluster_passes),
                             Table::num(run.total_seconds())});
    }
  }
  print_table(combine_table, args);

  std::printf("\n-- Counting data structure: itemset-keyed shuffle vs dense "
              "candidate-id arrays, kernel chosen per task (pass>=2 "
              "counting stages) --\n");
  Table countmode_table({"dataset", "mode", "count sim(s)", "count host(s)",
                         "shipped MB", "itemsets"});
  for (const auto& bench : benches) {
    const CountModeResult faithful =
        yafim_count_mode(bench, fim::CountMode::kItemsetKey);
    const CountModeResult dense =
        yafim_count_mode(bench, fim::CountMode::kCandidateId);
    YAFIM_CHECK(faithful.itemsets == dense.itemsets,
                "count modes disagree on frequent itemsets");
    for (const auto& [label, res, x] :
         {std::tuple{"itemset_key", &faithful, 0.0},
          std::tuple{"candidate_id", &dense, 1.0}}) {
      countmode_table.add_row(
          {bench.name, label, Table::num(res->count_sim_s),
           Table::num(res->count_host_s, 3),
           Table::num(static_cast<double>(res->shipped_bytes) / 1e6, 2),
           Table::num(res->itemsets)});
      json.add("countmode_sim_s:" + bench.name, x, res->count_sim_s);
      json.add("countmode_host_s:" + bench.name, x, res->count_host_s);
      json.add("countmode_shuffle_mb:" + bench.name, x,
               static_cast<double>(res->shipped_bytes) / 1e6);
    }
    std::printf("  %s: host wall-clock faithful/dense %.2fx; counting sim "
                "faithful/dense %.2fx\n",
                bench.name.c_str(),
                faithful.count_host_s / dense.count_host_s,
                faithful.count_sim_s / dense.count_sim_s);
  }
  print_table(countmode_table, args);

  std::printf("\n-- Phase I count key: one-item Itemsets (perfbench's "
              "replay) vs by-value fim::Singleton (yafim_mine), load + "
              "pass 1, fastest of 3 --\n");
  Table phase1_table({"dataset", "key", "sim(s)", "host(s)", "frequent"});
  for (const auto& bench : benches) {
    simfs::SimFS fs(sim::ClusterConfig::paper());
    const std::string path = "hdfs://ablation/" + bench.name;
    fs.write(path, bench.db.serialize());
    PhaseOneResult best[2];
    for (int round = 0; round < 3; ++round) {
      for (int x = 0; x < 2; ++x) {
        const PhaseOneResult res =
            phase_one_once(fs, path, bench.paper_min_support, x == 1);
        if (round == 0) {
          best[x] = res;
          continue;
        }
        YAFIM_CHECK(res.sim_s == best[x].sim_s &&
                        res.frequent == best[x].frequent,
                    "a Phase I mine's deterministic numbers differ across "
                    "runs");
        best[x].host_s = std::min(best[x].host_s, res.host_s);
      }
    }
    YAFIM_CHECK(best[0].frequent == best[1].frequent,
                "the Phase I keys disagree on the frequent items");
    for (int x = 0; x < 2; ++x) {
      phase1_table.add_row({bench.name, x == 0 ? "Itemset" : "Singleton",
                            Table::num(best[x].sim_s),
                            Table::num(best[x].host_s, 4),
                            Table::num(best[x].frequent)});
      // perf_gate.py: x=0 and x=1 sims equal; T10's host ratio banded.
      json.add("phase1_sim_s:" + bench.name, x, best[x].sim_s);
      json.add("phase1_host_s:" + bench.name, x, best[x].host_s);
    }
    std::printf("  %s: host Itemset/Singleton %.2fx\n", bench.name.c_str(),
                best[0].host_s / best[1].host_s);
  }
  print_table(phase1_table, args);

  std::printf("\n-- Candidate generation: the join alone vs the shipped rule "
              "(prefix-class bitsets when they price less), every pass of "
              "one mine, fastest of 3 --\n");
  Table apgen_table({"dataset", "Sup", "generator", "units", "sim(s)",
                     "host(s)", "candidates"});
  const sim::CostModel driver_model(sim::ClusterConfig::paper());
  // MushRoom at its paper support; T10I4D100K at 0.1%, where pass 3's C3
  // makes candidate generation a sizeable driver stage.
  for (const auto& [bench, min_support] :
       {std::pair{&benches[0], benches[0].paper_min_support},
        std::pair{&benches[1], 0.001}}) {
    const ApGenResult res = ap_gen_both(bench->db, min_support);
    for (int x = 0; x < 2; ++x) {
      const double sim_s = driver_model.compute_seconds(res.units[x]);
      apgen_table.add_row({bench->name, Table::num(min_support * 100, 2) + "%",
                           x == 0 ? "join" : "rule", Table::num(res.units[x]),
                           Table::num(sim_s, 4), Table::num(res.host_s[x], 4),
                           Table::num(res.candidates)});
      // perf_gate.py: x=1 sim <= x=0 and the baseline; T10's host ratio.
      json.add("apgen_sim_s:" + bench->name, x, sim_s);
      json.add("apgen_host_s:" + bench->name, x, res.host_s[x]);
    }
    std::printf("  %s: units join/rule %.2fx, host join/rule %.2fx\n",
                bench->name.c_str(),
                static_cast<double>(res.units[0]) /
                    static_cast<double>(res.units[1]),
                res.host_s[0] / res.host_s[1]);
  }
  print_table(apgen_table, args);

  std::printf("\n-- Determinism sanitizer (engine/detsan.h): replay "
              "overhead at the default sample rate vs off --\n");
  Table detsan_table({"dataset", "detsan", "total(s)", "overhead",
                      "replayed", "divergences"});
  for (const auto& bench : benches) {
    double base_s = 0.0;
    for (const auto& [label, enabled, x] :
         {std::tuple{"off", false, 0.0}, std::tuple{"on", true, 1.0}}) {
      engine::Context::Options ctx_opt{.cluster = sim::ClusterConfig::paper()};
      ctx_opt.detsan.enabled = enabled;
      engine::Context ctx(ctx_opt);
      simfs::SimFS fs(ctx.cluster());
      fim::YafimOptions opt;
      opt.min_support = bench.paper_min_support;
      const auto run = fim::yafim_mine(ctx, fs, bench.db, opt);
      const double total = run.total_seconds();
      if (!enabled) base_s = total;
      YAFIM_CHECK(ctx.detsan().divergences() == 0,
                  "stock YAFIM must replay clean");
      detsan_table.add_row(
          {bench.name, label, Table::num(total),
           Table::num(total / base_s, 3) + "x",
           Table::num(ctx.detsan().tasks_replayed()),
           Table::num(ctx.detsan().divergences())});
      // perf_gate.py: series x=0 detsan off, x=1 on; on <= off * 1.10.
      json.add("detsan_sim_s:" + bench.name, x, total);
    }
  }
  print_table(detsan_table, args);

  std::printf("\n-- Streaming micro-batches: per-batch simulated latency vs "
              "ingest interval (stream/miner.h) --\n");
  Table stream_table({"dataset", "batches", "interval(s)", "steady batch(s)",
                      "widenings", "slack", "itemsets"});
  for (const auto& bench : benches) {
    engine::Context ctx(
        engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
    simfs::SimFS fs(ctx.cluster());
    stream::StreamOptions opt;
    opt.min_support = bench.paper_min_support;
    opt.num_batches = 12;
    opt.source.window_s = 5.0;
    // Stream the whole dataset exactly once across the run so the final
    // frontier reflects the full-dataset supports the other sections mine.
    opt.source.ingest_rate = static_cast<double>(bench.db.size()) /
                             (static_cast<double>(opt.num_batches) *
                              opt.source.window_s);
    const auto res = stream::stream_mine(ctx, fs, bench.db, opt);
    stream_table.add_row(
        {bench.name, Table::num(u64{res.batches.size()}),
         Table::num(res.ingest_interval_s, 2),
         Table::num(res.steady_batch_seconds(), 3),
         Table::num(res.widenings), Table::num(res.reverify_slack, 2),
         Table::num(res.itemsets.total())});
    for (const auto& batch : res.batches) {
      json.add("stream_batch_sim_s:" + bench.name,
               static_cast<double>(batch.batch), batch.sim_seconds);
    }
    json.add("stream_interval_s:" + bench.name, 0.0, res.ingest_interval_s);
  }
  print_table(stream_table, args);

  std::printf("\n-- Approximate mining (Toivonen sampling, fim/sampling.h): "
              "recall vs speed against exact YAFIM; precision is always 1 "
              "(verified supports) --\n");
  Table approx_table({"dataset", "p", "relax", "total(s)", "speedup",
                      "recall", "exact", "candidates", "border"});
  for (const auto& bench : benches) {
    engine::Context xctx(
        engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
    simfs::SimFS xfs(xctx.cluster());
    fim::YafimOptions xopt;
    xopt.min_support = bench.paper_min_support;
    const auto exact_run = fim::yafim_mine(xctx, xfs, bench.db, xopt);
    const double exact_s = exact_run.total_seconds();
    json.add("approx_exact_sim_s:" + bench.name, 0.0, exact_s);

    double x = 0.0;
    for (const auto& [p, r] :
         {std::pair{0.1, 0.5}, std::pair{0.2, 0.5}, std::pair{0.2, 0.8},
          std::pair{0.5, 1.0}}) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::SamplingOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.sample_fraction = p;
      opt.relax = r;
      const auto sres = fim::sampling_mine(ctx, fs, bench.db, opt);
      // Soundness invariant, not a tolerance: every verified itemset must
      // be in the exact answer with the exact support.
      for (u32 k = 1; k <= sres.run.itemsets.max_k(); ++k) {
        for (const auto& [itemset, support] : sres.run.itemsets.level(k)) {
          YAFIM_CHECK(exact_run.itemsets.support_of(itemset) == support,
                      "approximate output disagrees with the exact miner");
        }
      }
      const double total = sres.run.total_seconds();
      const double recall =
          exact_run.itemsets.total() == 0
              ? 1.0
              : static_cast<double>(sres.run.itemsets.total()) /
                    static_cast<double>(exact_run.itemsets.total());
      approx_table.add_row(
          {bench.name, Table::num(p, 2), Table::num(r, 2), Table::num(total),
           Table::num(exact_s / total, 2) + "x", Table::num(recall, 4),
           sres.exact ? "yes" : "no", Table::num(sres.candidate_union),
           Table::num(sres.border_union)});
      json.add("approx_sim_s:" + bench.name, x, total);
      json.add("approx_recall:" + bench.name, x, recall);
      json.add("approx_exact:" + bench.name, x, sres.exact ? 1.0 : 0.0);
      x += 1.0;
    }
  }
  print_table(approx_table, args);

  std::printf("\n-- MapReduce job-combining strategies (Lin et al.; "
              "MRApriori) --\n");
  Table mr_table({"dataset", "strategy", "jobs", "candidates", "total(s)"});
  for (const auto& bench : benches) {
    for (const auto& [name, strategy] : kCombinings) {
      engine::Context ctx(
          engine::Context::Options{.cluster = sim::ClusterConfig::paper()});
      simfs::SimFS fs(ctx.cluster());
      fim::MrAprioriOptions opt;
      opt.min_support = bench.paper_min_support;
      opt.combining.strategy = strategy;
      const auto run = fim::mr_apriori_mine(ctx, fs, bench.db, opt);
      u64 jobs = 0;  // MapReduce job startups paid
      for (const auto& stage : ctx.report().stages()) {
        if (stage.fixed_overhead_s > 0) ++jobs;
      }
      u64 candidates = 0;
      for (const auto& pass : run.passes) candidates += pass.candidates;
      mr_table.add_row({bench.name, name, Table::num(jobs),
                         Table::num(candidates),
                         Table::num(run.total_seconds())});
    }
  }
  print_table(mr_table, args);
  finish(args, &json);
  return 0;
}
