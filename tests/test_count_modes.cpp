// Count-mode equivalence and pricing tests.
//
// The dense candidate-id path (CountMode::kCandidateId, each task choosing
// between its batch's row kernel -- the pair matrix or the candidate trie --
// and the bitmap kernel) must be an exact
// drop-in for the paper-faithful itemset-keyed path: bit-identical
// FrequentItemsets across pass batching, fault/corruption injection,
// checkpoint resume and both engines, with mode-invariant observability
// counters (candidate generation, broadcast/DFS traffic) agreeing as well.
// Also covers the lineage recompute charge of count_candidate_trees, the
// sum_arrays RDD action the dense paths are built on, the adversarial-hash
// reduce bucket case, and the stage-pricing exactness fixes (split_work).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/error.h"
#include "engine/rdd.h"
#include "engine/work.h"
#include "fim/apriori_seq.h"
#include "fim/bitmap.h"
#include "fim/candidate_gen.h"
#include "fim/checkpoint.h"
#include "fim/count_core.h"
#include "fim/dist_eclat.h"
#include "fim/mr_apriori.h"
#include "fim/pfp.h"
#include "fim/yafim.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId};
/// One level per pass, and levels batched from level 2 on.
constexpr CombineStrategy kSpc = CombineStrategy::kSinglePass;
constexpr CombineStrategy kCombinings[] = {kSpc, CombineStrategy::kDynamic};

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  // Pin injection off so exact counter assertions hold even when the whole
  // binary runs under the CI fault matrix; faulty cases opt in explicitly.
  opts.fault = engine::FaultProfile{};
  return opts;
}

/// small_cluster() with free task launches: a reduce stage's launch floor
/// is zero, so every sum_arrays merge ends on the reducers.
engine::Context::Options reducer_cluster() {
  auto opts = small_cluster();
  opts.cluster.spark_task_launch_s = 0.0;
  return opts;
}

/// Whether ctx's report holds a stage `label`.
bool has_stage(const engine::Context& ctx, const std::string& label) {
  for (const sim::StageRecord& st : ctx.report().stages()) {
    if (st.label == label) return true;
  }
  return false;
}

/// The stage `label` in ctx's report.
const sim::StageRecord& stage_named(const engine::Context& ctx,
                                    const std::string& label) {
  for (const sim::StageRecord& st : ctx.report().stages()) {
    if (st.label == label) return st;
  }
  ADD_FAILURE() << "no stage " << label;
  static const sim::StageRecord none;
  return none;
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

// Databases for the dense kernel choice (count_rows). With small_cluster()
// every counting stage has 24 tasks, so each task sees about ten rows.

/// Short rows over many items: probing stays cheaper than indexing the
/// rows left in every task, so no task switches kernels.
constexpr double kSparseMinSupport = 0.02;
const TransactionDB& sparse_db() {
  static const TransactionDB db = random_db(60, 240, 0.05, 3);
  return db;
}

/// Near-full rows: every task switches to the bitmap right after row 0.
constexpr double kSaturatedMinSupport = 0.75;
const TransactionDB& saturated_db() {
  static const TransactionDB db = random_db(20, 240, 0.9, 5);
  return db;
}

/// Rows 10j..10j+2 hold one item, which costs a probe nothing, and the
/// other seven of every ten are dense: a task cannot switch before its
/// fourth row, and switches once the dense rows set its pace.
constexpr double kMixedMinSupport = 0.3;
const TransactionDB& mixed_db() {
  static const TransactionDB db = [] {
    Rng rng(9);
    std::vector<Transaction> tx;
    for (int i = 0; i < 240; ++i) {
      Transaction t;
      if (i % 10 < 3) {
        t.push_back(static_cast<Item>(rng.below(16)));
      } else {
        for (u32 item = 0; item < 16; ++item) {
          if (rng.bernoulli(0.8)) t.push_back(item);
        }
        if (t.empty()) t.push_back(0);
      }
      tx.push_back(std::move(t));
    }
    return TransactionDB(std::move(tx));
  }();
  return db;
}

MiningRun run_yafim(const TransactionDB& db, CountMode mode,
                    CombineStrategy combining,
                    engine::Context::Options copts = small_cluster(),
                    double min_support = 0.2, u32 stop_after_pass = 0) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  YafimOptions opt;
  opt.min_support = min_support;
  opt.count_mode = mode;
  opt.combining.strategy = combining;
  opt.stop_after_pass = stop_after_pass;
  return yafim_mine(ctx, fs, db, opt);
}

/// Every candidate batch yafim counts from pass 2 on, rebuilt from `run`'s
/// frequent levels as yafim_mine builds them.
std::vector<CandidateBatch> pass_batches(const MiningRun& run,
                                         CombineStrategy combining) {
  PassCombining policy;
  policy.strategy = combining;
  std::vector<CandidateBatch> batches;
  for (u32 k = 2; !run.itemsets.level(k - 1).empty();) {
    std::vector<Itemset> frequent;
    for (const auto& [itemset, support] : run.itemsets.level(k - 1)) {
      frequent.push_back(itemset);
    }
    CandidateBatch batch(
        candidate_levels(to_sorted_rows(frequent), k, policy));
    if (batch.empty()) break;
    k += static_cast<u32>(batch.num_levels());
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// `batch`'s levels as hash trees of yafim's default shape, ids as in the
/// batch: what its itemset-keyed count probes.
std::vector<HashTree> trees_of(const CandidateBatch& batch) {
  std::vector<HashTree> trees;
  for (const LevelView& level : batch.levels()) {
    trees.emplace_back(
        ItemsetRows{level.k(), {level.items().begin(), level.items().end()}},
        0, 16);
    trees.back().set_id_offset(level.id_offset);
  }
  return trees;
}

/// Serialized bytes of trees_of(batch): what its itemset-keyed count ships.
u64 tree_bytes_of(const CandidateBatch& batch) {
  return HashTree::serialized_bytes(trees_of(batch));
}

// ---- bit-identity matrix ------------------------------------------------

TEST(CountModes, YafimBitIdenticalAcrossModesAndBatching) {
  const auto db = random_db(16, 250, 0.35, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GT(seq.itemsets.total(), 0u);

  for (CombineStrategy combining : kCombinings) {
    const auto faithful = run_yafim(db, CountMode::kItemsetKey, combining);
    EXPECT_TRUE(faithful.itemsets.same_itemsets(seq.itemsets))
        << "combining=" << static_cast<int>(combining);
    const auto run = run_yafim(db, CountMode::kCandidateId, combining);
    EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets))
        << "combining=" << static_cast<int>(combining);
    // Same candidate levels were generated and verified in both modes.
    ASSERT_EQ(run.passes.size(), faithful.passes.size());
    for (size_t i = 0; i < run.passes.size(); ++i) {
      EXPECT_EQ(run.passes[i].k, faithful.passes[i].k);
      EXPECT_EQ(run.passes[i].candidates, faithful.passes[i].candidates);
      EXPECT_EQ(run.passes[i].frequent, faithful.passes[i].frequent);
    }
  }
}

TEST(CountModes, MaterializeChargesOneUnitPerSurvivor) {
  // Survivors come back from where the merge ends, on either plan, so the
  // driver builds only the frequent itemsets: one unit each.
  const auto db = random_db(14, 200, 0.4, 7);
  for (const bool reducers : {false, true}) {
    engine::Context ctx(reducers ? reducer_cluster() : small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = CountMode::kCandidateId;
    const MiningRun run = yafim_mine(ctx, fs, db, opt);
    u32 counted = 0;
    for (const PassStats& p : run.passes) {
      if (p.k < 2) continue;
      const std::string pass = "pass" + std::to_string(p.k);
      const std::string where = pass + " reducers=" + std::to_string(reducers);
      EXPECT_EQ(stage_named(ctx, pass + ":materialize").driver_work,
                p.frequent)
          << where;
      EXPECT_LT(p.frequent, p.candidates) << where;
      EXPECT_EQ(has_stage(ctx, pass + ":count:reduce"), reducers) << where;
      EXPECT_EQ(has_stage(ctx, pass + ":count:aggregate"), !reducers)
          << where;
      ++counted;
    }
    EXPECT_GE(counted, 2u);
  }
}

TEST(CountModes, YafimBitIdenticalUnderFaultInjection) {
  const auto db = random_db(14, 200, 0.4, 7);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, kSpc);

  for (CountMode mode : kAllModes) {
    for (CombineStrategy combining : kCombinings) {
      auto copts = small_cluster();
      copts.fault.seed = 99;
      copts.fault.task_failure_p = 0.05;
      copts.fault.straggler_p = 0.05;
      const auto run = run_yafim(db, mode, combining, copts);
      EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
          << count_mode_name(mode)
          << " combining=" << static_cast<int>(combining);
    }
  }
}

TEST(CountModes, YafimBitIdenticalUnderCorruptionInjection) {
  const auto db = random_db(14, 200, 0.4, 8);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, kSpc);

  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.cluster.hdfs_block_bytes = 1024;
    copts.fault.corrupt.seed = 11;
    copts.fault.corrupt.block_p = 0.05;
    copts.fault.corrupt.cached_p = 0.1;
    const auto run = run_yafim(db, mode, kSpc, copts);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
  }
}

TEST(CountModes, DenseResumeFromCheckpointIsBitIdentical) {
  // Crash mid-mine in the dense mode, resume from the snapshot: the resumed
  // passes must reproduce the uninterrupted run's itemsets.
  const auto db = random_db(16, 200, 0.45, 100);
  const auto reference = run_yafim(db, CountMode::kCandidateId, kSpc);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to test resume";

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_dense_resume";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());
  engine::Context::Options copts = small_cluster();
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kCandidateId;
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  {
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    const auto partial = yafim_mine(ctx, fs, db, opt);
    EXPECT_EQ(partial.passes.back().k, 2u);
  }
  opt.stop_after_pass = 0;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto resumed = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
}

TEST(CountModes, MrAprioriBitIdenticalAcrossModes) {
  const auto db = random_db(16, 250, 0.35, 42);
  const auto yafim_ref = run_yafim(db, CountMode::kCandidateId, kSpc);

  for (CountMode mode : kAllModes) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    const auto run = mr_apriori_mine(ctx, fs, db, opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(yafim_ref.itemsets))
        << count_mode_name(mode);
  }
}

// ---- observability-counter agreement ------------------------------------

/// Counters that must not depend on how counting is performed at all:
/// candidate generation and broadcast/DFS traffic are identical in both
/// modes, but for the dense mode's kernel payloads
/// (ModeInvariantCountersAgree).
const obs::CounterId kModeInvariantCounters[] = {
    obs::CounterId::kCandidatesGenerated,
    obs::CounterId::kCandidatesPruned,
    obs::CounterId::kBroadcastBytes,
    obs::CounterId::kDfsReadBytes,
};

/// Probe-effort counters: the faithful mode's hash-tree probes, the dense
/// mode's trie walk.
const obs::CounterId kProbeCounters[] = {
    obs::CounterId::kHashTreeNodesVisited,
    obs::CounterId::kHashTreeCandChecks,
    obs::CounterId::kTrieLookups,
};

std::vector<u64> traced_counters(const TransactionDB& db, CountMode mode,
                                 CombineStrategy combining,
                                 engine::Context::Options copts,
                                 std::span<const obs::CounterId> ids,
                                 double min_support = 0.2,
                                 u32 stop_after_pass = 0) {
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, mode, combining, copts, min_support, stop_after_pass);
  obs::set_enabled(false);
  std::vector<u64> values;
  for (obs::CounterId id : ids) values.push_back(obs::counter_value(id));
  return values;
}

TEST(CountModes, ModeInvariantCountersAgree) {
  // The dense mode broadcasts every batch as its DenseKernel instead of its
  // hash trees: a pair batch as its item list, 16 + 4 |L1| bytes, any other
  // batch as its tries. SPC's pass 2 is a pair batch, and at 10% support
  // SPC counts C3 as well; DPC's pass 2 holds levels 2 and 3 and ships
  // their tries.
  const auto db = random_db(15, 220, 0.35, 21);
  for (const double min_support : {0.2, 0.1}) {
    for (CombineStrategy combining : kCombinings) {
      const std::string where =
          "combining=" + std::to_string(static_cast<int>(combining)) +
          " min_support=" + std::to_string(min_support);
      const auto faithful = traced_counters(
          db, CountMode::kItemsetKey, combining, small_cluster(),
          kModeInvariantCounters, min_support);
      const auto values =
          traced_counters(db, CountMode::kCandidateId, combining,
                          small_cluster(), kModeInvariantCounters, min_support);
      const MiningRun run = run_yafim(db, CountMode::kItemsetKey, combining,
                                      small_cluster(), min_support);
      u64 tree_bytes = 0;
      u64 pair_list = 0;
      u64 trie_payloads = 0;
      u64 tries = 0;
      for (const CandidateBatch& batch : pass_batches(run, combining)) {
        tree_bytes += tree_bytes_of(batch);
        const auto kernel = std::make_shared<const DenseKernel>(batch.levels());
        if (kernel->pairs()) {
          pair_list += kernel->payload_bytes();
          continue;
        }
        for (const CandidateTrie& trie : kernel->tries()) {
          trie_payloads += trie.payload_bytes();
          ++tries;
        }
      }
      ASSERT_EQ(pair_list != 0, combining == kSpc) << where;
      if (combining == kSpc) {
        EXPECT_EQ(pair_list, 16 + 4 * run.itemsets.level(1).size()) << where;
      }
      ASSERT_EQ(tries > 0, combining != kSpc || min_support < 0.2) << where;
      ASSERT_EQ(faithful.size(), values.size());
      for (size_t i = 0; i < faithful.size(); ++i) {
        u64 expect = faithful[i];
        if (kModeInvariantCounters[i] == obs::CounterId::kBroadcastBytes) {
          expect = expect - tree_bytes + pair_list + trie_payloads;
        }
        EXPECT_EQ(values[i], expect)
            << obs::counter_name(kModeInvariantCounters[i]) << " " << where;
      }
    }
  }
}

TEST(CountModes, ProbeCountersAgreeBetweenProbingModes) {
  // The faithful mode probes every row through the hash trees of every
  // batch; the dense mode probes no hash tree at all. Where no dense task
  // switches kernels (sparse), its trie.lookups are exactly the units of
  // every row walked on every trie batch; where tasks switch to the bitmap
  // (mixed), some rows are never walked.
  struct Case {
    const char* name;
    const TransactionDB& db;
    double min_support;
    bool switches;
  };
  // At half its usual support the sparse database reaches pass 3.
  const Case cases[] = {{"sparse", sparse_db(), kSparseMinSupport / 2, false},
                        {"mixed", mixed_db(), kMixedMinSupport, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const MiningRun run = run_yafim(c.db, CountMode::kItemsetKey, kSpc,
                                    small_cluster(), c.min_support);
    // Every row through every batch: hash-tree probes, and trie walks of
    // the batches that are not pair batches.
    u64 nodes_visited = 0;
    u64 candidate_checks = 0;
    u64 trie_units = 0;
    for (const CandidateBatch& batch : pass_batches(run, kSpc)) {
      const auto kernel = std::make_shared<const DenseKernel>(batch.levels());
      const std::vector<HashTree> trees = trees_of(batch);
      std::vector<u64> cells(batch.id_space(), 0);
      for (const Transaction& t : c.db.transactions()) {
        for (const HashTree& tree : trees) {
          HashTree::Probe probe;
          tree.for_each_contained(t, probe, [](u32) {});
          nodes_visited += probe.nodes_visited;
          candidate_checks += probe.candidate_checks;
        }
        if (!kernel->pairs()) {
          engine::work::Scope scope;
          kernel->count_row(t, cells.data());
          trie_units += scope.measured();
        }
      }
    }
    ASSERT_GT(trie_units, 0u) << "no trie batch";

    const auto faithful =
        traced_counters(c.db, CountMode::kItemsetKey, kSpc, small_cluster(),
                        kProbeCounters, c.min_support);
    const auto dense =
        traced_counters(c.db, CountMode::kCandidateId, kSpc, small_cluster(),
                        kProbeCounters, c.min_support);
    EXPECT_EQ(faithful, (std::vector<u64>{nodes_visited, candidate_checks, 0}));
    EXPECT_EQ(dense[0], 0u);
    EXPECT_EQ(dense[1], 0u);
    if (c.switches) {
      EXPECT_GT(dense[2], 0u);
      EXPECT_LT(dense[2], trie_units);
    } else {
      EXPECT_EQ(dense[2], trie_units);
    }
  }
}

TEST(CountModes, PartitionedStoreProbesNoHashTree) {
  // The store counts every batch on the DenseKernels of its first-item
  // slices in both modes, so a forced-partitioned run probes no hash tree;
  // its slices' rows are walked or indexed (dense.rows_*) instead.
  const TransactionDB db = random_db(16, 200, 0.45, 100);
  const MiningRun reference = run_yafim(db, CountMode::kItemsetKey, kSpc);
  ASSERT_GE(reference.passes.size(), 3u);
  for (CountMode mode : kAllModes) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    opt.broadcast_mode = BroadcastMode::kPartitioned;
    obs::CounterRegistry::instance().reset_all();
    obs::set_enabled(true);
    const MiningRun run = yafim_mine(ctx, fs, db, opt);
    obs::set_enabled(false);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
    EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u)
        << count_mode_name(mode);
    EXPECT_EQ(obs::counter_value(obs::CounterId::kHashTreeNodesVisited), 0u)
        << count_mode_name(mode);
    EXPECT_EQ(obs::counter_value(obs::CounterId::kHashTreeCandChecks), 0u)
        << count_mode_name(mode);
    EXPECT_GT(obs::counter_value(obs::CounterId::kDenseRowsProbed) +
                  obs::counter_value(obs::CounterId::kDenseRowsBitmap),
              0u)
        << count_mode_name(mode);
  }
}

TEST(CountModes, PartitionedStoreRangeTasksShipOnlyTheirOwnCells) {
  // A range task writes only the cells of its own first-item slices, and
  // each candidate id belongs to one range, so a routed pass's partials
  // ship at most 8 B per task plus 12 B per candidate, in both modes.
  const TransactionDB db = random_db(16, 200, 0.45, 100);
  for (CountMode mode : kAllModes) {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    YafimOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    opt.broadcast_mode = BroadcastMode::kPartitioned;
    const MiningRun run = yafim_mine(ctx, fs, db, opt);
    u32 routed = 0;
    for (const PassStats& p : run.passes) {
      const std::string pass = "pass" + std::to_string(p.k);
      bool has_route = false;
      for (const sim::StageRecord& st : ctx.report().stages()) {
        has_route |= st.label == pass + ":route:reduce";
      }
      if (!has_route) continue;  // pair batches never shard
      ++routed;
      const sim::StageRecord& map =
          stage_named(ctx, pass + ":count:map-combine");
      EXPECT_LE(map.shuffle_bytes, 8 * map.tasks.size() + 12 * p.candidates)
          << count_mode_name(mode) << " " << pass;
    }
    EXPECT_GT(routed, 0u) << count_mode_name(mode);
  }
}

TEST(CountModes, SwitchingTasksRecordBitmapWork) {
  // Every dense task on the saturated database switches to the bitmap
  // kernel right after its first row: the rows it counts that way show up
  // in the bitmap counters.
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(saturated_db(), CountMode::kCandidateId, kSpc,
                  small_cluster(), kSaturatedMinSupport);
  obs::set_enabled(false);
  EXPECT_GT(obs::counter_value(obs::CounterId::kDenseRowsBitmap), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kBitmapIndexBytes), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kBitmapAndWords), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kBitmapPopcounts), 0u);
}

TEST(CountModes, CountersReproducibleUnderFaultInjection) {
  // Under injection the retry schedule perturbs probe counters, so the
  // cross-mode comparison no longer applies; what must still hold is exact
  // run-to-run reproducibility for a fixed (mode, seed).
  const auto db = random_db(14, 180, 0.4, 5);
  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.fault.seed = 123;
    copts.fault.task_failure_p = 0.08;
    const auto first =
        traced_counters(db, mode, kSpc, copts, kModeInvariantCounters);
    const auto second =
        traced_counters(db, mode, kSpc, copts, kModeInvariantCounters);
    EXPECT_EQ(first, second) << count_mode_name(mode);
  }
}

TEST(CountModes, BitIdenticalUnderComposedMemShrinkAndTaskFailures) {
  // Two fault axes in the SAME run: a mid-run executor-memory shrink (which
  // flips later passes to the partitioned candidate store) composed with
  // task-failure injection (which perturbs the retry schedule). Every mode
  // must still produce the clean run's exact itemsets -- the degraded
  // counting path and the retried tasks may not interact destructively.
  // The database reaches pass 3, whose trees fall back in every mode (the
  // dense mode counts pass 2 on the pair matrix, which never falls back).
  const auto db = random_db(16, 200, 0.45, 100);
  const auto clean = run_yafim(db, CountMode::kItemsetKey, kSpc);
  ASSERT_GT(clean.itemsets.total(), 0u);

  for (u64 seed : {101ull, 211ull}) {
    for (CountMode mode : kAllModes) {
      auto copts = small_cluster();
      copts.fault.seed = seed;
      copts.fault.task_failure_p = 0.08;
      copts.fault.mem_shrink_pass = 2;
      copts.fault.mem_shrink_factor = 1e-9;
      copts.fault.mem_shrink_node = 1;

      engine::Context ctx(copts);
      simfs::SimFS fs(ctx.cluster());
      YafimOptions opt;
      opt.min_support = 0.2;
      opt.count_mode = mode;
      const auto run = yafim_mine(ctx, fs, db, opt);
      EXPECT_TRUE(run.itemsets.same_itemsets(clean.itemsets))
          << count_mode_name(mode) << " seed=" << seed;
      // Both axes actually fired.
      EXPECT_GT(ctx.memory_budget().mem_shrinks_applied(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
      EXPECT_GT(ctx.fault_injector().task_retries(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
      EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u)
          << count_mode_name(mode) << " seed=" << seed;
    }
  }
}

// ---- dense kernel choice (count_rows) -----------------------------------

/// Every k-itemset of `items` (ascending), in lexicographic order.
ItemsetRows every_itemset(const std::vector<Item>& items, u32 k) {
  ItemsetRows level{1, items};
  for (u32 j = 2; j <= k; ++j) level = apriori_gen_rows(level, j);
  return level;
}

/// One tree over every size-k itemset of items [0, universe).
std::vector<HashTree> every_candidate(u32 universe, u32 k) {
  std::vector<Item> items(universe);
  std::iota(items.begin(), items.end(), Item{0});
  std::vector<HashTree> trees;
  trees.emplace_back(every_itemset(items, k), 0, 16);
  HashTree::assign_id_offsets(trees);
  return trees;
}

struct KernelChoice {
  std::vector<u64> cells;
  u64 probed = 0;
  u64 bitmapped = 0;
  u64 work = 0;
  u64 index_bytes = 0;
};

/// count_rows over one partition, with its cells, charged work and counters.
KernelChoice choose_kernel(std::span<const Transaction> rows,
                           const std::vector<HashTree>& trees) {
  KernelChoice out;
  out.cells.assign(trees.back().id_offset() + trees.back().size(), 0);
  const std::vector<LevelView> levels = level_views(trees);
  const auto kernel = std::make_shared<const DenseKernel>(levels);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  {
    engine::work::Scope scope;
    count_rows(rows, levels, *kernel, out.cells.data());
    out.work = scope.measured();
  }
  obs::set_enabled(false);
  out.probed = obs::counter_value(obs::CounterId::kDenseRowsProbed);
  out.bitmapped = obs::counter_value(obs::CounterId::kDenseRowsBitmap);
  out.index_bytes = obs::counter_value(obs::CounterId::kBitmapIndexBytes);
  return out;
}

TEST(DenseKernelChoice, SwitchRowFollowsTheRuleAndCellsStayExact) {
  enum class Switch { kNever, kAfterRowZero, kMidPartition };
  struct Case {
    const char* name;
    std::vector<Transaction> rows;
    std::vector<HashTree> trees;
    Switch expect;
  };
  const TransactionDB sparse = random_db(60, 24, 0.05, 3);
  const TransactionDB saturated = random_db(20, 30, 0.9, 5);
  const TransactionDB quarter = random_db(12, 40, 0.3, 1);
  // Three one-item rows cost the walk nothing; then near-full rows set its
  // pace.
  std::vector<Transaction> mixed{{3}, {7}, {11}};
  const TransactionDB full_rows = random_db(20, 27, 0.9, 5);
  mixed.insert(mixed.end(), full_rows.transactions().begin(),
               full_rows.transactions().end());
  const Case cases[] = {
      {"sparse pairs", sparse.transactions(), every_candidate(60, 2),
       Switch::kNever},
      {"sparse", sparse.transactions(), every_candidate(60, 3),
       Switch::kNever},
      {"saturated", saturated.transactions(), every_candidate(20, 3),
       Switch::kAfterRowZero},
      {"mixed", mixed, every_candidate(20, 3), Switch::kMidPartition},
      {"quarter", quarter.transactions(), every_candidate(12, 3),
       Switch::kMidPartition}};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const u64 n = c.rows.size();
    // Complete C2s count on the pair matrix, the k = 3 levels on the trie.
    const std::vector<LevelView> levels = level_views(c.trees);
    const auto kernel = std::make_shared<const DenseKernel>(levels);
    EXPECT_EQ(kernel->pairs() != nullptr, c.trees.front().k() == 2);
    const std::vector<Item>& items = kernel->items();
    EXPECT_EQ(items, candidate_items(levels));
    // Reference: every row probed through the hash tree, and every row
    // walked on the kernel with what each row's walk charges.
    std::vector<u64> probed_cells(c.trees.front().size(), 0);
    std::vector<u64> walked_cells(c.trees.front().size(), 0);
    std::vector<u64> row_units;
    for (const Transaction& t : c.rows) {
      HashTree::Probe probe;
      c.trees.front().for_each_contained(
          t, probe, [&](u32 ci) { ++probed_cells[ci]; });
      engine::work::Scope scope;
      kernel->count_row(t, walked_cells.data());
      row_units.push_back(scope.measured());
    }
    EXPECT_EQ(walked_cells, probed_cells);
    // The rule, restated: the first m in [1, n) where the kernel units of
    // rows [0, m), scaled to the n - m rows left, exceed the bitmap price.
    auto bitmap_price = [&](u64 m) {
      u64 occurrences = 0;
      for (u64 r = m; r < n; ++r) occurrences += c.rows[r].size();
      return VerticalBitmapIndex::build_units(occurrences, items.size(),
                                              n - m) +
             VerticalBitmapIndex::count_units(levels.front(), n - m);
    };
    u64 expect_m = n;
    u64 spent = row_units[0];
    for (u64 m = 1; m < n; spent += row_units[m], ++m) {
      if (spent * (n - m) > bitmap_price(m) * m) {
        expect_m = m;
        break;
      }
    }

    const KernelChoice got = choose_kernel(c.rows, c.trees);
    EXPECT_EQ(got.cells, probed_cells);
    EXPECT_EQ(got.probed, expect_m);
    EXPECT_EQ(got.probed + got.bitmapped, n);
    // Each row is priced by the kernel that counted it.
    EXPECT_EQ(got.work, expect_m < n ? spent + bitmap_price(expect_m) : spent);
    switch (c.expect) {
      case Switch::kNever:
        EXPECT_EQ(got.probed, n);
        EXPECT_EQ(got.index_bytes, 0u);
        break;
      case Switch::kAfterRowZero:
        EXPECT_EQ(got.probed, 1u);
        break;
      case Switch::kMidPartition:
        EXPECT_GT(got.probed, 3u);
        EXPECT_LT(got.probed, n);
        break;
    }
  }
}

TEST(DenseKernelChoice, IndexHoldsOnlyCandidateItems) {
  // Long rows of items no candidate contains: the pair kernel still looks
  // up every one of them, but the index the task switches to holds one row
  // per candidate item only.
  Rng rng(13);
  std::vector<Transaction> rows(200);
  for (Transaction& t : rows) {
    for (Item i = 100; i < 1000; ++i) {
      if (rng.bernoulli(0.07)) t.push_back(i);
    }
  }
  const std::vector<HashTree> trees = every_candidate(32, 2);
  const std::vector<Item> items = candidate_items(level_views(trees));
  ASSERT_EQ(items.size(), 32u);

  const KernelChoice got = choose_kernel(rows, trees);
  ASSERT_GT(got.bitmapped, 0u) << "the switch did not fire";
  EXPECT_EQ(got.cells, std::vector<u64>(trees.front().size(), 0));
  // At most candidate items x ceil(rows / 64) words, plus the index's
  // item-to-row table over the candidate item ids.
  const u64 words = items.size() * ceil_div(rows.size(), 64);
  const u64 table = (items.size() + items.back() + 1) * sizeof(u32);
  EXPECT_LE(got.index_bytes, words * sizeof(u64) + table);
  // Indexing every item of the partition would take ten times as much.
  std::vector<Item> every_item;
  for (const Transaction& t : rows) {
    every_item.insert(every_item.end(), t.begin(), t.end());
  }
  std::sort(every_item.begin(), every_item.end());
  every_item.erase(std::unique(every_item.begin(), every_item.end()),
                   every_item.end());
  EXPECT_LT(10 * got.index_bytes,
            VerticalBitmapIndex(rows, std::move(every_item)).bytes());
}

/// Rows the dense kernel choice probed and bitmap-counted over one mine,
/// plus the task count of the mine's counting stages.
struct ChoiceCounters {
  FrequentItemsets itemsets;
  u64 probed = 0;
  u64 bitmapped = 0;
  u64 count_tasks = 0;
};

ChoiceCounters mine_counted(const TransactionDB& db, double min_support,
                            CountMode mode, bool mapreduce,
                            CombineStrategy combining) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  ChoiceCounters out;
  if (mapreduce) {
    MrAprioriOptions opt;
    opt.min_support = min_support;
    opt.count_mode = mode;
    opt.combining.strategy = combining;
    out.itemsets = mr_apriori_mine(ctx, fs, db, opt).itemsets;
  } else {
    YafimOptions opt;
    opt.min_support = min_support;
    opt.count_mode = mode;
    opt.combining.strategy = combining;
    out.itemsets = yafim_mine(ctx, fs, db, opt).itemsets;
  }
  obs::set_enabled(false);
  out.probed = obs::counter_value(obs::CounterId::kDenseRowsProbed);
  out.bitmapped = obs::counter_value(obs::CounterId::kDenseRowsBitmap);
  for (const sim::StageRecord& st : ctx.report().stages()) {
    const std::string& l = st.label;
    const bool counting =
        mapreduce ? l.size() > 4 && l.compare(l.size() - 4, 4, ":map") == 0
                  : l.find(":count:map-combine") != std::string::npos;
    if (counting && st.pass >= 2) out.count_tasks += st.tasks.size();
  }
  return out;
}

/// The three databases of the kernel choice, at their supports.
struct ChoiceCase {
  const char* name;
  const TransactionDB& db;
  double min_support;
};

std::vector<ChoiceCase> choice_cases() {
  return {{"sparse", sparse_db(), kSparseMinSupport},
          {"saturated", saturated_db(), kSaturatedMinSupport},
          {"mixed", mixed_db(), kMixedMinSupport}};
}

/// Broadcast bytes of pass 2's counting stage: yafim's map-combine stage,
/// or the distributed cache of mrapriori's job-2 map stage, per node.
u64 pass_two_broadcast(const engine::Context& ctx, bool mapreduce) {
  const std::string label =
      mapreduce ? "mrapriori:job2:map" : "pass2:count:map-combine";
  for (const sim::StageRecord& st : ctx.report().stages()) {
    if (st.label == label) {
      return mapreduce ? st.broadcast_bytes / ctx.cluster().nodes
                       : st.broadcast_bytes;
    }
  }
  ADD_FAILURE() << "no stage " << label;
  return 0;
}

/// Mine `c` on `ctx` with default options, through yafim or mrapriori.
MiningRun mine_default(engine::Context& ctx, const ChoiceCase& c,
                       bool mapreduce) {
  simfs::SimFS fs(ctx.cluster());
  if (mapreduce) {
    MrAprioriOptions opt;
    opt.min_support = c.min_support;
    return mr_apriori_mine(ctx, fs, c.db, opt);
  }
  YafimOptions opt;
  opt.min_support = c.min_support;
  return yafim_mine(ctx, fs, c.db, opt);
}

TEST(DenseKernelChoice, MinersMatchItemsetKeyOnAllThreeDatabases) {
  for (const ChoiceCase& c : choice_cases()) {
    for (const bool mapreduce : {false, true}) {
      for (const CombineStrategy combining : kCombinings) {
        const std::string where = std::string(c.name) +
                                  (mapreduce ? " mrapriori" : " yafim") +
                                  " combining=" +
                                  std::to_string(static_cast<int>(combining));
        const ChoiceCounters faithful = mine_counted(
            c.db, c.min_support, CountMode::kItemsetKey, mapreduce, combining);
        const ChoiceCounters dense = mine_counted(
            c.db, c.min_support, CountMode::kCandidateId, mapreduce, combining);
        ASSERT_GT(faithful.itemsets.total(), 0u) << where;
        EXPECT_TRUE(dense.itemsets.same_itemsets(faithful.itemsets)) << where;
        EXPECT_EQ(faithful.probed + faithful.bitmapped, 0u) << where;
        ASSERT_GT(dense.count_tasks, 0u) << where;
        if (&c.db == &sparse_db()) {
          EXPECT_EQ(dense.bitmapped, 0u) << where;
          EXPECT_EQ(dense.probed, dense.count_tasks * 10) << where;
        } else if (&c.db == &saturated_db()) {
          EXPECT_GT(dense.bitmapped, 0u) << where;
          EXPECT_EQ(dense.probed, dense.count_tasks) << where;
        } else {
          // No task can switch before its fourth row; some do switch.
          EXPECT_GT(dense.bitmapped, 0u) << where;
          EXPECT_GE(dense.probed, dense.count_tasks * 4) << where;
        }
      }
    }
  }
}

TEST(DenseKernelChoice, TaskWorkIsIdenticalAcrossHostThreadCounts) {
  // Pass 2 of each database is a pair batch, counted on the pair matrix
  // (its broadcast is the item list): alone on the sparse database, then
  // switching to the bitmap on the other two.
  for (const ChoiceCase& c : choice_cases()) {
    const MiningRun faithful = run_yafim(c.db, CountMode::kItemsetKey, kSpc,
                                         small_cluster(), c.min_support);
    const u64 item_list = 16 + 4 * faithful.itemsets.level(1).size();
    for (const bool mapreduce : {false, true}) {
      const std::string where =
          std::string(c.name) + (mapreduce ? " mrapriori" : " yafim");
      std::vector<std::vector<sim::StageRecord>> stages;
      for (const u32 threads : {1u, 4u}) {
        auto copts = small_cluster();
        copts.host_threads = threads;
        engine::Context ctx(copts);
        (void)mine_default(ctx, c, mapreduce);
        EXPECT_EQ(pass_two_broadcast(ctx, mapreduce), item_list) << where;
        stages.push_back(ctx.report().stages());
      }
      ASSERT_EQ(stages[0].size(), stages[1].size()) << where;
      for (size_t s = 0; s < stages[0].size(); ++s) {
        const sim::StageRecord& a = stages[0][s];
        const sim::StageRecord& b = stages[1][s];
        EXPECT_EQ(a.label, b.label) << where;
        ASSERT_EQ(a.tasks.size(), b.tasks.size()) << where << a.label;
        for (size_t t = 0; t < a.tasks.size(); ++t) {
          EXPECT_EQ(a.tasks[t].work, b.tasks[t].work)
              << where << " " << a.label << " task " << t;
        }
      }
    }
  }
}

TEST(DenseKernelChoice, DetSanReplaysTheSwitchingTasksClean) {
  for (const ChoiceCase& c : choice_cases()) {
    const MiningRun faithful = run_yafim(c.db, CountMode::kItemsetKey, kSpc,
                                         small_cluster(), c.min_support);
    for (const bool mapreduce : {false, true}) {
      const std::string where =
          std::string(c.name) + (mapreduce ? " mrapriori" : " yafim");
      auto copts = small_cluster();
      copts.detsan.enabled = true;
      copts.detsan.sample_rate = 1.0;
      engine::Context ctx(copts);
      const MiningRun run = mine_default(ctx, c, mapreduce);
      EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets)) << where;
      EXPECT_GT(ctx.detsan().tasks_replayed(), 0u) << where;
      EXPECT_EQ(ctx.detsan().divergences(), 0u) << where;
    }
  }
}

// ---- lineage recompute (count_candidate_trees) --------------------------

/// Everything the simulator prices a stage by, as one line.
std::string stage_text(const sim::StageRecord& st) {
  std::ostringstream out;
  out << st.label << ' ' << static_cast<int>(st.kind) << ' ' << st.pass;
  for (const sim::TaskRecord& t : st.tasks) {
    out << ' ' << t.work << '/' << t.attempts << '/' << t.wasted_work << '/'
        << t.speculative;
  }
  out << ' ' << st.shuffle_bytes << ' ' << st.broadcast_bytes << ' '
      << st.naive_ship_bytes << ' ' << st.driver_fetch_bytes << ' '
      << st.dfs_read_bytes << ' ' << st.dfs_write_bytes << ' '
      << st.driver_work << ' ' << st.fixed_overhead_s;
  return out.str();
}

struct CountCall {
  std::vector<CountPair> counted;
  std::vector<std::string> stages;  ///< stage_text of each stage recorded
  u64 fallbacks = 0;                ///< memory ledger's broadcast fallbacks
  u64 broadcast_bytes = 0;          ///< summed over the recorded stages
};

/// Pass k (2 by default) over every k-itemset of items [0, 12) of a fixed
/// database, on a fresh context whose executors hold `executor_memory`
/// bytes (0 = unbounded): through count_batch under `bmode` (`via_batch`),
/// or through a direct count_candidate_trees call that shards when `bmode`
/// is kPartitioned or, as perfbench's replay decides, when the trees do
/// not fit.
CountCall count_pairs(CountMode mode, BroadcastMode bmode, bool via_batch,
                      const sim::StageRecord* lineage, u32 k = 2,
                      u64 executor_memory = 0) {
  static const TransactionDB db = random_db(12, 120, 0.4, 31);
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = executor_memory;
  engine::Context ctx(copts);
  auto transactions = ctx.parallelize(db.transactions(), 0);
  ItemsetRows level{1, {}};
  for (Item i = 0; i < 12; ++i) level.items.push_back(i);
  for (u32 j = 2; j <= k; ++j) level = apriori_gen_rows(level, j);
  std::vector<ItemsetRows> levels;
  levels.push_back(std::move(level));
  const CandidateBatch batch(std::move(levels));
  ctx.set_pass(k);
  const size_t first = ctx.report().stages().size();
  CountCoreOptions opt;
  opt.count_mode = mode;
  opt.min_count = k == 2 ? 18 : 6;  // about the mean support
  opt.pass_name = "pass" + std::to_string(k);
  CountCall out;
  if (via_batch) {
    out.counted = count_batch(ctx, transactions, batch, bmode, opt, lineage);
  } else {
    auto trees = std::make_shared<std::vector<HashTree>>(trees_of(batch));
    const u64 tree_bytes = tree_bytes_of(batch);
    opt.partitioned = bmode == BroadcastMode::kPartitioned ||
                      !ctx.memory_budget().broadcast_fits(tree_bytes);
    opt.kmin = batch.kmin();
    out.counted = count_candidate_trees(ctx, transactions, trees, tree_bytes,
                                        batch.id_space(), lineage, opt);
  }
  const std::vector<sim::StageRecord>& stages = ctx.report().stages();
  for (size_t s = first; s < stages.size(); ++s) {
    out.stages.push_back(stage_text(stages[s]));
  }
  out.fallbacks = ctx.memory_budget().broadcast_fallbacks();
  out.broadcast_bytes = ctx.report().total_broadcast_bytes();
  return out;
}

/// A load stage as yafim records it, with odd task work and bytes.
sim::StageRecord load_stage() {
  sim::StageRecord load;
  load.label = "load:textFile+parse";
  load.kind = sim::StageKind::kSparkStage;
  load.tasks = sim::split_work(1009, 7);
  load.dfs_read_bytes = 4099;
  return load;
}

TEST(CountCore, LineageRecomputeIsTheJobsFirstStage) {
  const sim::StageRecord load = load_stage();
  sim::StageRecord recompute = load;
  recompute.label = "pass2:recompute lineage";
  recompute.pass = 2;
  for (CountMode mode : kAllModes) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      const std::string where = std::string(count_mode_name(mode)) + "/" +
                                broadcast_mode_name(bmode);
      const CountCall cached = count_pairs(mode, bmode, false, nullptr);
      const CountCall uncached = count_pairs(mode, bmode, false, &load);
      ASSERT_FALSE(cached.counted.empty()) << where;
      EXPECT_EQ(uncached.counted, cached.counted) << where;
      // Null: no recompute stage at all.
      for (const std::string& st : cached.stages) {
        EXPECT_EQ(st.find(":recompute lineage"), std::string::npos)
            << where << ": " << st;
      }
      // A record: one recompute stage, first, equal to the record but for
      // its label and pass; the cached job's stages follow unchanged.
      ASSERT_EQ(uncached.stages.size(), cached.stages.size() + 1) << where;
      EXPECT_EQ(uncached.stages.front(), stage_text(recompute)) << where;
      EXPECT_EQ(std::vector<std::string>(uncached.stages.begin() + 1,
                                         uncached.stages.end()),
                cached.stages)
          << where;
    }
  }
}

TEST(CountCore, CountBatchRecordsWhatADirectCallRecords) {
  // perfbench's replay calls count_candidate_trees directly with its own
  // broadcast decision and its own k = 3 HashTree batches; it prices the
  // mine only if count_batch adds nothing to that call.
  const sim::StageRecord load = load_stage();
  const sim::StageRecord* const lineages[] = {&load, nullptr};
  for (CountMode mode : kAllModes) {
    for (BroadcastMode bmode :
         {BroadcastMode::kAuto, BroadcastMode::kPartitioned}) {
      for (const sim::StageRecord* lineage : lineages) {
        const std::string where = std::string(count_mode_name(mode)) + "/" +
                                  broadcast_mode_name(bmode) +
                                  (lineage ? " uncached" : " cached");
        // k = 2 is a pair batch, k = 3 a trie batch in the dense mode.
        for (const u32 k : {2u, 3u}) {
          const CountCall direct = count_pairs(mode, bmode, false, lineage, k);
          const CountCall batch = count_pairs(mode, bmode, true, lineage, k);
          EXPECT_EQ(batch.counted, direct.counted) << where << " k=" << k;
          EXPECT_EQ(batch.stages, direct.stages) << where << " k=" << k;
        }
      }
    }
  }
}

// ---- pair batches (PairMatrix) ------------------------------------------

/// C2 over `items` (ascending) as apriori_gen_rows emits it, as one tree
/// with ids from 0.
std::vector<HashTree> pair_trees(const std::vector<Item>& items) {
  std::vector<HashTree> trees;
  trees.emplace_back(apriori_gen_rows(ItemsetRows{1, items}, 2), 0, 16);
  HashTree::assign_id_offsets(trees);
  return trees;
}

TEST(PairBatch, KernelCellsEqualHashTreeProbeCells) {
  struct Case {
    const char* name;
    std::vector<Item> items;  ///< the matrix's items, ascending
    std::vector<Item> noise;  ///< ids the matrix does not hold
  };
  const Case cases[] = {
      {"small ids", {0, 2, 3, 5, 8, 9, 12, 14, 17, 20, 21, 25}, {1, 4, 13}},
      {"ids across 2^20",
       {3, 17, 1000, (1u << 20) - 1, 1u << 20, (1u << 20) + 5, 5000000},
       {4, 1u << 19, (1u << 20) + 1, 9000000}},
      {"ids near 2^32",
       {5, 0xfffffff0u, 0xfffffff3u, 0xfffffffau, 0xffffffffu},
       {6, 0xfffffff1u, 0xfffffffeu}},
      {"m = 2", {7, 0xfffffffeu}, {8, 0xfffffffdu}},
  };
  Rng rng(41);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<HashTree> trees = pair_trees(c.items);
    const std::vector<LevelView> levels = level_views(trees);
    const auto pairs = PairMatrix::of(levels);
    ASSERT_NE(pairs, nullptr);
    EXPECT_EQ(pairs->items(), c.items);
    EXPECT_EQ(pairs->num_pairs(), trees.front().size());
    EXPECT_EQ(pairs->payload_bytes(), 16 + 4 * c.items.size());

    // Random rows of matrix and noise items, plus an empty row and rows
    // holding one matrix item.
    std::vector<Transaction> rows{{}, {c.items[1]}, {c.noise[0], c.items[0]}};
    for (int r = 0; r < 200; ++r) {
      Transaction t;
      for (Item i : c.items) {
        if (rng.bernoulli(0.45)) t.push_back(i);
      }
      for (Item i : c.noise) {
        if (rng.bernoulli(0.3)) t.push_back(i);
      }
      canonicalize(t);
      rows.push_back(std::move(t));
    }

    std::vector<u64> probed(pairs->num_pairs(), 0);
    std::vector<u64> kernel(pairs->num_pairs(), 0);
    for (const Transaction& t : rows) {
      HashTree::Probe probe;
      trees.front().for_each_contained(t, probe,
                                       [&](u32 ci) { ++probed[ci]; });
      u64 ranked = 0;
      for (Item i : t) {
        ranked += std::binary_search(c.items.begin(), c.items.end(), i);
      }
      engine::work::Scope scope;
      pairs->count_row(t, kernel.data());
      // One unit per row item, one per pair increment.
      EXPECT_EQ(scope.measured(), t.size() + ranked * (ranked - 1) / 2)
          << to_string(t);
    }
    EXPECT_EQ(kernel, probed);

    // count_rows on the matrix, with its bitmap switch, counts the same.
    std::vector<u64> cells(pairs->num_pairs(), 0);
    const auto dense = std::make_shared<const DenseKernel>(levels);
    ASSERT_NE(dense->pairs(), nullptr);
    count_rows(rows, levels, *dense, cells.data());
    EXPECT_EQ(cells, probed);
  }
}

TEST(PairBatch, OnlyACompleteLexicographicC2Qualifies) {
  // PairMatrix::of refuses each of these, so the dense mode counts them on
  // their tries: it probes no hash tree, broadcasts the trie payload and
  // counts what the faithful mode counts.
  const TransactionDB db = random_db(10, 160, 0.45, 57);
  const std::vector<Item> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const ItemsetRows c2 = apriori_gen_rows(ItemsetRows{1, items}, 2);
  ASSERT_NE(PairMatrix::of(level_views(pair_trees(items))), nullptr);

  ItemsetRows missing_one = c2;
  missing_one.items.erase(missing_one.items.begin() + 14,
                          missing_one.items.begin() + 16);
  PassCombining dpc;
  dpc.strategy = CombineStrategy::kDynamic;
  std::vector<ItemsetRows> dpc_levels =
      candidate_levels(ItemsetRows{1, items}, 2, dpc);
  ASSERT_GT(dpc_levels.size(), 1u);
  ASSERT_EQ(dpc_levels.front().items, c2.items);

  struct Case {
    const char* name;
    std::vector<ItemsetRows> levels;
  };
  std::vector<Case> cases;
  cases.push_back({"missing one pair", {missing_one}});
  cases.push_back({"C2 with higher levels", dpc_levels});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const CandidateBatch batch(std::move(c.levels));
    EXPECT_EQ(PairMatrix::of(batch.levels()), nullptr);
    const auto kernel = std::make_shared<const DenseKernel>(batch.levels());
    ASSERT_EQ(kernel->tries().size(), batch.num_levels());
    std::vector<std::vector<CountPair>> counted;
    for (CountMode mode : kAllModes) {
      const bool faithful = mode == CountMode::kItemsetKey;
      engine::Context ctx(small_cluster());
      auto transactions = ctx.parallelize(db.transactions(), 0);
      ctx.set_pass(2);
      CountCoreOptions opt;
      opt.count_mode = mode;
      opt.pass_name = "pass2";
      obs::CounterRegistry::instance().reset_all();
      obs::set_enabled(true);
      counted.push_back(count_batch(ctx, transactions, batch,
                                    BroadcastMode::kAuto, opt, nullptr));
      obs::set_enabled(false);
      const u64 nodes =
          obs::counter_value(obs::CounterId::kHashTreeNodesVisited);
      const u64 checks =
          obs::counter_value(obs::CounterId::kHashTreeCandChecks);
      const u64 lookups = obs::counter_value(obs::CounterId::kTrieLookups);
      if (faithful) {
        EXPECT_GT(nodes, 0u);
        EXPECT_GT(checks, 0u);
        EXPECT_EQ(lookups, 0u);
        EXPECT_EQ(ctx.report().total_broadcast_bytes(), tree_bytes_of(batch));
      } else {
        EXPECT_EQ(nodes, 0u);
        EXPECT_EQ(checks, 0u);
        EXPECT_GT(lookups, 0u);
        EXPECT_EQ(ctx.report().total_broadcast_bytes(),
                  kernel->payload_bytes());
        EXPECT_LT(kernel->payload_bytes(), tree_bytes_of(batch));
      }
    }
    std::sort(counted[0].begin(), counted[0].end());
    std::sort(counted[1].begin(), counted[1].end());
    ASSERT_FALSE(counted[0].empty());
    EXPECT_EQ(counted[1], counted[0]);
  }
}

TEST(PairBatch, DirectCallIgnoresTheShardDecisionLikeCountBatch) {
  // perfbench's replay calls count_candidate_trees with `partitioned` set
  // whenever the pass-2 tree does not fit; it prices the mine only if the
  // pair batch is counted dense there as well, as count_batch counts it.
  constexpr u64 kTight = 1024;  // below C2's and C3's tree bytes
  const CountCall direct = count_pairs(CountMode::kCandidateId,
                                       BroadcastMode::kAuto, false, nullptr,
                                       2, kTight);
  const CountCall batch = count_pairs(CountMode::kCandidateId,
                                      BroadcastMode::kAuto, true, nullptr, 2,
                                      kTight);
  ASSERT_FALSE(direct.counted.empty());
  EXPECT_EQ(batch.counted, direct.counted);
  EXPECT_EQ(batch.stages, direct.stages);
  EXPECT_EQ(direct.fallbacks, 0u);
  for (const std::string& st : direct.stages) {
    EXPECT_EQ(st.find(":shard"), std::string::npos) << st;
  }
  // The item list is what the count stage broadcasts: 16 + 4 * 12 bytes.
  EXPECT_EQ(direct.broadcast_bytes, 16u + 4 * 12);
  const CountCall full = count_pairs(
      CountMode::kCandidateId, BroadcastMode::kPartitioned, true, nullptr);
  EXPECT_EQ(full.stages, direct.stages);

  // A k = 3 batch over the same items still shards, either way.
  const CountCall direct3 = count_pairs(CountMode::kCandidateId,
                                        BroadcastMode::kAuto, false, nullptr,
                                        3, kTight);
  const CountCall batch3 = count_pairs(CountMode::kCandidateId,
                                       BroadcastMode::kAuto, true, nullptr, 3,
                                       kTight);
  ASSERT_FALSE(direct3.counted.empty());
  EXPECT_EQ(batch3.counted, direct3.counted);
  EXPECT_EQ(batch3.stages, direct3.stages);
  EXPECT_EQ(direct3.fallbacks, 1u);
  EXPECT_EQ(direct3.stages.front().rfind("pass3:shard-kernels", 0), 0u);
}

TEST(PairBatch, SaturatedPassTwoSwitchesToTheBitmap) {
  const MiningRun run = run_yafim(saturated_db(), CountMode::kItemsetKey,
                                  kSpc, small_cluster(), kSaturatedMinSupport);
  ASSERT_NE(PairMatrix::of(pass_batches(run, kSpc).front().levels()),
            nullptr);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(saturated_db(), CountMode::kCandidateId, kSpc,
                  small_cluster(), kSaturatedMinSupport,
                  /*stop_after_pass=*/2);
  obs::set_enabled(false);
  EXPECT_GT(obs::counter_value(obs::CounterId::kDenseRowsBitmap), 0u);
  // Pass 2 never touched its hash tree.
  EXPECT_EQ(obs::counter_value(obs::CounterId::kHashTreeNodesVisited), 0u);
}

TEST(PairBatch, MrAprioriPairJobNeverShards) {
  // Under a budget below every tree, and under a forced partitioned store,
  // job 2 runs whole with its item list in the distributed cache; job 3
  // still shards.
  const MiningRun faithful =
      run_yafim(mixed_db(), CountMode::kItemsetKey, kSpc, small_cluster(),
                kMixedMinSupport);
  ASSERT_GE(faithful.passes.size(), 3u);
  const u64 payload = 16 + 4 * faithful.itemsets.level(1).size();
  struct Case {
    const char* name;
    u64 executor_memory;
    BroadcastMode bmode;
  };
  const Case cases[] = {{"tight budget", 1024, BroadcastMode::kAuto},
                        {"partitioned", 0, BroadcastMode::kPartitioned}};
  for (const Case& c : cases) {
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = c.executor_memory;
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = kMixedMinSupport;
    opt.broadcast_mode = c.bmode;
    const MiningRun run = mr_apriori_mine(ctx, fs, mixed_db(), opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets)) << c.name;
    EXPECT_EQ(pass_two_broadcast(ctx, true), payload) << c.name;
    bool job3_sharded = false;
    for (const sim::StageRecord& st : ctx.report().stages()) {
      EXPECT_EQ(st.label.find("job2:shard"), std::string::npos)
          << c.name << ": " << st.label;
      job3_sharded |= st.label == "mrapriori:job3:shard-candidates";
    }
    EXPECT_TRUE(job3_sharded) << c.name;
    EXPECT_EQ(ctx.memory_budget().broadcast_fallbacks(),
              faithful.passes.size() - 2)
        << c.name;
  }
}

// ---- candidate tries (CandidateTrie) ------------------------------------

/// One tree over `rows` (canonical, ascending) with id offset `offset`.
HashTree tree_of(ItemsetRows rows, u64 offset = 0) {
  HashTree tree(std::move(rows), 0, 16);
  tree.set_id_offset(offset);
  return tree;
}

/// `tree`'s rows and id offset.
LevelView view_of(const HashTree& tree) {
  return LevelView::of(tree.rows(), tree.id_offset());
}

/// A random `fraction` of `level`'s rows, order kept.
ItemsetRows sample_rows(const ItemsetRows& level, double fraction, Rng& rng) {
  ItemsetRows out{level.width, {}};
  for (size_t r = 0; r < level.size(); ++r) {
    if (rng.bernoulli(fraction)) {
      out.items.insert(out.items.end(), level.row(r),
                       level.row(r) + level.width);
    }
  }
  return out;
}

/// The item ids the trie tests map ranks 0..n-1 to: small ids, ids across
/// 2^20, and ids near 2^32.
std::vector<Item> spread_ids(u32 n, Item base) {
  std::vector<Item> ids;
  for (u32 r = 0; r < n; ++r) ids.push_back(base + 3 * r);
  return ids;
}

TEST(CandidateTrie, RowsAndPayloadMatchTheTree) {
  Rng rng(61);
  for (const Item base : {Item{0}, (1u << 20) - 7, 0xffffffffu - 3 * 13}) {
    const std::vector<Item> ids = spread_ids(14, base);
    for (u32 k = 1; k <= 4; ++k) {
      SCOPED_TRACE("base " + std::to_string(base) + " k " +
                   std::to_string(k));
      const HashTree tree =
          tree_of(sample_rows(every_itemset(ids, k), 0.5, rng), 7);
      ASSERT_GT(tree.size(), 0u);
      const CandidateTrie trie(view_of(tree));
      EXPECT_EQ(trie.k(), k);
      EXPECT_EQ(trie.size(), tree.size());
      EXPECT_EQ(trie.id_offset(), 7u);
      for (u32 ci = 0; ci < tree.size(); ++ci) {
        EXPECT_EQ(trie.row(ci), tree.rows().itemset(ci)) << ci;
      }
      // One node per distinct d-item prefix, d = 1..k; one child offset per
      // node of depths 0..k-1 plus one closing offset per depth.
      u64 nodes = 0;
      u64 offsets = 2;  // the root's range
      for (u32 d = 1; d <= k; ++d) {
        std::set<Itemset> prefixes;
        for (u32 ci = 0; ci < tree.size(); ++ci) {
          const Item* c = tree.rows().row(ci);
          prefixes.emplace(c, c + d);
        }
        nodes += prefixes.size();
        if (d < k) offsets += prefixes.size() + 1;
      }
      EXPECT_EQ(trie.num_nodes(), nodes);
      EXPECT_EQ(trie.num_offsets(), offsets);
      EXPECT_EQ(trie.payload_bytes(), 16 + 4 * (nodes + offsets));
    }
  }
}

TEST(CandidateTrie, CellsEqualHashTreeProbeCells) {
  struct Case {
    const char* name;
    std::vector<ItemsetRows> levels;  ///< the batch, ids from 0 on
    std::vector<Item> ids;            ///< every id the rows draw from
    double density;
  };
  Rng rng(67);
  const std::vector<Item> small = spread_ids(12, 0);
  const std::vector<Item> past_2_20 = spread_ids(12, (1u << 20) - 10);
  const std::vector<Item> near_2_32 = spread_ids(12, 0xffffffffu - 3 * 11);
  PassCombining dpc;
  dpc.strategy = CombineStrategy::kDynamic;
  std::vector<Case> cases;
  for (const double density : {0.2, 0.85}) {
    cases.push_back(
        {"k = 3", {sample_rows(every_itemset(small, 3), 0.6, rng)}, small,
         density});
    cases.push_back(
        {"k = 4 across 2^20",
         {sample_rows(every_itemset(past_2_20, 4), 0.5, rng)}, past_2_20,
         density});
    cases.push_back(
        {"k = 3 near 2^32",
         {sample_rows(every_itemset(near_2_32, 3), 0.6, rng)}, near_2_32,
         density});
    // Sampling's verification batch: singletons, pairs and triples.
    cases.push_back({"k = 1, 2, 3",
                     {sample_rows(every_itemset(near_2_32, 1), 0.7, rng),
                      sample_rows(every_itemset(near_2_32, 2), 0.5, rng),
                      sample_rows(every_itemset(near_2_32, 3), 0.3, rng)},
                     near_2_32, density});
    cases.push_back({"DPC levels 2 on",
                     candidate_levels(ItemsetRows{1, past_2_20}, 2, dpc),
                     past_2_20, density});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) +
                 (c.density > 0.5 ? " saturated" : " sparse"));
    std::vector<HashTree> trees;
    for (const ItemsetRows& level : c.levels) trees.push_back(tree_of(level));
    const u64 id_space = HashTree::assign_id_offsets(trees);
    const std::vector<LevelView> levels = level_views(trees);
    const auto kernel = std::make_shared<const DenseKernel>(levels);
    ASSERT_EQ(kernel->pairs(), nullptr);
    ASSERT_EQ(kernel->tries().size(), trees.size());
    // Rows of the batch's ids and of ids no candidate holds, including
    // empty rows and rows shorter than every level's k.
    std::vector<Transaction> rows{{}, {c.ids[2]}, {c.ids[0], c.ids[5]}};
    for (int r = 0; r < 120; ++r) {
      Transaction t;
      for (Item i : c.ids) {
        if (rng.bernoulli(c.density)) t.push_back(i);
        if (i != 0xffffffffu && rng.bernoulli(0.1)) t.push_back(i + 1);
      }
      canonicalize(t);
      rows.push_back(std::move(t));
    }
    std::vector<u64> probed(id_space, 0);
    std::vector<u64> walked(id_space, 0);
    for (const Transaction& t : rows) {
      for (const HashTree& tree : trees) {
        HashTree::Probe probe;
        tree.for_each_contained(t, probe, [&](u32 ci) {
          ++probed[tree.id_offset() + ci];
        });
      }
      obs::CounterRegistry::instance().reset_all();
      obs::set_enabled(true);
      engine::work::Scope scope;
      kernel->count_row(t, walked.data());
      obs::set_enabled(false);
      // The walk's units are its lookups; a row shorter than every k
      // costs nothing.
      EXPECT_EQ(obs::counter_value(obs::CounterId::kTrieLookups),
                scope.measured());
      if (t.size() < trees.front().k()) {
        EXPECT_EQ(scope.measured(), 0u);
      }
    }
    EXPECT_EQ(walked, probed);

    // count_rows, with its bitmap switch, counts the same.
    std::vector<u64> cells(id_space, 0);
    count_rows(rows, levels, *kernel, cells.data());
    EXPECT_EQ(cells, probed);
  }
}

TEST(CandidateTrieDeathTest, ANonAscendingLevelDies) {
  const std::vector<Item> items{0, 1, 2, 3, 4, 5};
  ItemsetRows out_of_order = every_itemset(items, 3);
  std::swap_ranges(out_of_order.items.begin() + 3,
                   out_of_order.items.begin() + 6,
                   out_of_order.items.begin() + 6);
  EXPECT_DEATH(CandidateTrie(LevelView::of(out_of_order, 0)),
               "strictly ascending");
  ItemsetRows repeated = every_itemset(items, 2);
  repeated.items.insert(repeated.items.begin() + 2, {0, 2});
  EXPECT_DEATH(CandidateTrie(LevelView::of(repeated, 0)),
               "strictly ascending");

  // A C2 out of order is no pair batch, and no trie either.
  ItemsetRows c2_out_of_order = every_itemset(items, 2);
  std::swap_ranges(c2_out_of_order.items.begin() + 4,
                   c2_out_of_order.items.begin() + 6,
                   c2_out_of_order.items.begin() + 6);
  const LevelView c2_level = LevelView::of(c2_out_of_order, 0);
  EXPECT_EQ(PairMatrix::of({&c2_level, 1}), nullptr);
  EXPECT_DEATH(DenseKernel({&c2_level, 1}), "strictly ascending");
}

TEST(CandidateTrie, CandidateIdJobShipsTheKernelPayload) {
  // A k = 3 job localizes its trie, a pair batch's job its item list.
  const std::vector<HashTree> triples = every_candidate(12, 3);
  const std::vector<LevelView> triple_levels = level_views(triples);
  const auto trie_kernel = std::make_shared<const DenseKernel>(triple_levels);
  ASSERT_EQ(trie_kernel->pairs(), nullptr);
  const u64 trie_bytes = CandidateTrie(triple_levels.front()).payload_bytes();
  EXPECT_LT(trie_bytes, triples.front().serialized_bytes());
  EXPECT_EQ(candidate_id_job("job3", triple_levels, trie_kernel, 1, 2, 2)
                .distributed_cache_bytes,
            trie_bytes);
  const std::vector<HashTree> pairs = every_candidate(12, 2);
  const std::vector<LevelView> pair_levels = level_views(pairs);
  EXPECT_EQ(candidate_id_job("job2", pair_levels,
                             std::make_shared<const DenseKernel>(pair_levels),
                             1, 2, 2)
                .distributed_cache_bytes,
            16u + 4 * 12);

  // When the store engages, mrapriori's job 3 runs one sub-job per range
  // of split_first_items at the tightest executor's budget, and each ships
  // the tries of its slices: one range under a forced store with room to
  // spare, several under a budget of half the batch's trie payload.
  const MiningRun faithful =
      run_yafim(mixed_db(), CountMode::kItemsetKey, kSpc, small_cluster(),
                kMixedMinSupport);
  const std::vector<CandidateBatch> batches = pass_batches(faithful, kSpc);
  ASSERT_GE(batches.size(), 2u);
  const std::span<const LevelView> pass3 = batches[1].levels();
  const u64 pass3_payload = DenseKernel(pass3).payload_bytes();
  struct Case {
    const char* name;
    u64 executor_memory;  ///< 0 keeps the cluster's 24 GiB
    BroadcastMode bmode;
    size_t min_ranges;
  };
  const Case cases[] = {
      {"forced", 0, BroadcastMode::kPartitioned, 1},
      {"half the trie", pass3_payload / 2, BroadcastMode::kAuto, 2}};
  for (const Case& c : cases) {
    auto copts = small_cluster();
    if (c.executor_memory) {
      copts.cluster.executor_memory_bytes = c.executor_memory;
    }
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = kMixedMinSupport;
    opt.broadcast_mode = c.bmode;
    const MiningRun run = mr_apriori_mine(ctx, fs, mixed_db(), opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets)) << c.name;
    const std::vector<FirstItemRange> ranges =
        split_first_items(pass3, ctx.memory_budget().min_node_budget());
    EXPECT_GE(ranges.size(), c.min_ranges) << c.name;
    if (c.min_ranges == 1) {
      EXPECT_EQ(ranges.size(), 1u) << c.name;
    }
    u32 shipped = 0;
    for (size_t s = 0; s < ranges.size(); ++s) {
      const std::string label =
          "mrapriori:job3:shard" + std::to_string(s) + ":map";
      for (const sim::StageRecord& st : ctx.report().stages()) {
        if (st.label != label) continue;
        EXPECT_EQ(st.broadcast_bytes / ctx.cluster().nodes,
                  ranges[s].payload_bytes)
            << c.name << " " << label;
        ++shipped;
      }
    }
    EXPECT_EQ(shipped, ranges.size()) << c.name;
  }
}

// ---- partitioned store (split_first_items) ------------------------------

TEST(PartitionedStore, RoutedSlicesCountTheWholeBatch) {
  // Route each row once to every range its viable prefix items fall in
  // (binary search over the range starts) and count each range's rows on
  // the DenseKernel of its slices: the cells are the whole batch's, at a
  // cap that keeps one range, at caps that split it into several, and at
  // a cap that gives every first item its own range.
  Rng rng(71);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<Item> ids =
        spread_ids(11, trial % 2 ? (1u << 20) - 12 : 0);
    std::vector<ItemsetRows> rows;
    for (u32 k = 2; k <= 4; ++k) {
      rows.push_back(sample_rows(every_itemset(ids, k), 0.35, rng));
    }
    const CandidateBatch batch(std::move(rows));
    ASSERT_EQ(batch.num_levels(), 3u);
    const double density = trial < 4 ? 0.3 : 0.8;
    std::vector<Transaction> txns{{}, {ids[3]}};
    for (int r = 0; r < 160; ++r) {
      Transaction t;
      for (Item i : ids) {
        if (rng.bernoulli(density)) t.push_back(i);
      }
      txns.push_back(std::move(t));
    }
    std::vector<u64> whole(batch.id_space(), 0);
    count_rows(txns, batch.levels(), DenseKernel(batch.levels()),
               whole.data());
    std::set<Item> classes;
    for (const LevelView& level : batch.levels()) {
      for (u32 ci = 0; ci < level.size(); ++ci) {
        classes.insert(level.row(ci)[0]);
      }
    }
    const u64 payload = DenseKernel(batch.levels()).payload_bytes();
    for (const u64 cap : {payload, payload / 2, payload / 4, u64{1}}) {
      SCOPED_TRACE("cap " + std::to_string(cap));
      const std::vector<FirstItemRange> ranges =
          split_first_items(batch.levels(), cap);
      if (cap == payload) {
        EXPECT_EQ(ranges.size(), 1u);
      }
      if (cap == payload / 4) {
        EXPECT_GE(ranges.size(), 3u);
      }
      if (cap == 1) {
        EXPECT_EQ(ranges.size(), classes.size());
      }
      std::vector<std::vector<Transaction>> routed(ranges.size());
      for (const Transaction& t : txns) {
        size_t last = ranges.size();  // no range yet
        for (size_t i = 0; i + batch.kmin() <= t.size(); ++i) {
          const auto above = std::upper_bound(
              ranges.begin(), ranges.end(), t[i],
              [](Item item, const FirstItemRange& range) {
                return item < range.first_item;
              });
          if (above == ranges.begin()) continue;
          const size_t s = static_cast<size_t>(above - ranges.begin()) - 1;
          if (s != last) routed[s].push_back(t);
          last = s;
        }
      }
      std::vector<u64> cells(batch.id_space(), 0);
      for (size_t s = 0; s < ranges.size(); ++s) {
        count_rows(routed[s], ranges[s].levels,
                   DenseKernel(ranges[s].levels), cells.data());
      }
      EXPECT_EQ(cells, whole);
    }
  }
}

// ---- sum_arrays ---------------------------------------------------------

TEST(SumArrays, ElementwiseSumAcrossPartitions) {
  engine::Context ctx(small_cluster());
  const size_t width = 37;
  std::vector<std::vector<u64>> arrays;
  std::vector<u64> expected(width, 0);
  Rng rng(3);
  for (int i = 0; i < 24; ++i) {
    std::vector<u64> a(width);
    for (size_t j = 0; j < width; ++j) {
      a[j] = rng.below(1000);
      expected[j] += a[j];
    }
    arrays.push_back(std::move(a));
  }
  const auto merged =
      ctx.parallelize(std::move(arrays), 6).sum_arrays(width);
  EXPECT_EQ(merged, expected);
}

TEST(SumArrays, ShuffleBytesPricedAsArrayWidthPerMapTask) {
  engine::Context ctx(reducer_cluster());
  const size_t width = 1000;
  const u32 parts = 5;
  std::vector<std::vector<u64>> arrays(parts * 3,
                                       std::vector<u64>(width, 1));
  (void)ctx.parallelize(std::move(arrays), parts).sum_arrays(width, "sum");

  u64 shuffle = 0;
  bool saw_map = false, saw_reduce = false;
  for (const auto& s : ctx.report().stages()) {
    shuffle += s.shuffle_bytes;
    if (s.label == "sum:map-combine") saw_map = true;
    if (s.label == "sum:reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_map);
  EXPECT_TRUE(saw_reduce);
  // One width-cell array per map task: 8-byte length prefix + width * u64,
  // independent of how many input arrays each partition held.
  EXPECT_EQ(shuffle, parts * (8 + width * sizeof(u64)));
}

TEST(SumArrays, WidthMismatchThrows) {
  for (const bool spill : {false, true}) {
    auto opts = small_cluster();
    // A 1-byte shuffle buffer sends every partial through simfs.
    if (spill) opts.cluster.shuffle_buffer_bytes = 1;
    engine::Context ctx(opts);
    simfs::SimFS fs(ctx.cluster());
    ctx.set_spill_fs(&fs);
    std::vector<std::vector<u64>> arrays{{1, 2, 3}, {4, 5}};
    auto rdd = ctx.parallelize(std::move(arrays), 2);
    try {
      (void)rdd.sum_arrays(3);
      FAIL() << "expected EngineError, spill=" << spill;
    } catch (const engine::EngineError& e) {
      EXPECT_EQ(e.kind(), engine::EngineErrorKind::kArrayWidthMismatch)
          << "spill=" << spill;
    }
    // The error fires before any block reaches simfs.
    EXPECT_EQ(ctx.memory_budget().spill_blocks_written(), 0u);
    EXPECT_EQ(ctx.memory_budget().shuffle_buffered_bytes(), 0u);
  }
}

TEST(SumArrays, EmptyPartitionsContributeZeros) {
  engine::Context ctx(small_cluster());
  // 2 arrays over 8 partitions: most partitions are empty.
  std::vector<std::vector<u64>> arrays{{1, 2}, {10, 20}};
  const auto merged = ctx.parallelize(std::move(arrays), 8).sum_arrays(2);
  EXPECT_EQ(merged, (std::vector<u64>{11, 22}));
}

TEST(SumArrays, ShipsSparseOnlyWhenStrictlySmaller) {
  // Width 3: two nonzero cells cost 8 + 2 * 12 = 32 B sparse, exactly the
  // dense 8 + 3 * 8, so that partial ships dense for 3 units (its width);
  // one nonzero cell ships sparse in 20 B for 1 unit (its entry).
  struct Case {
    std::vector<u64> cells;
    u64 bytes;
    u64 work;
  };
  const Case cases[] = {{{1, 2, 0}, 32, 3}, {{0, 5, 0}, 20, 1}};
  for (const Case& c : cases) {
    engine::Context ctx(reducer_cluster());
    const auto merged =
        ctx.from_partitions(std::vector<std::vector<std::vector<u64>>>{
                                {c.cells}})
            .sum_arrays(3, "sum");
    EXPECT_EQ(merged, c.cells);
    const sim::StageRecord& map = stage_named(ctx, "sum:map-combine");
    EXPECT_EQ(map.shuffle_bytes, c.bytes) << c.bytes;
    ASSERT_EQ(map.tasks.size(), 1u);
    EXPECT_EQ(map.tasks[0].work, c.work) << c.bytes;
  }
}

TEST(SumArrays, EmptyPartitionShipsEightBytesForNoWork) {
  engine::Context ctx(reducer_cluster());
  const size_t width = 50;
  const std::vector<u64> full(width, 2);
  const auto merged =
      ctx.from_partitions(std::vector<std::vector<std::vector<u64>>>{
                              {full}, {}})
          .sum_arrays(width, "sum");
  EXPECT_EQ(merged, full);
  const sim::StageRecord& map = stage_named(ctx, "sum:map-combine");
  EXPECT_EQ(map.shuffle_bytes, (8 + width * 8) + 8);
  ASSERT_EQ(map.tasks.size(), 2u);
  EXPECT_EQ(map.tasks[0].work, width);
  EXPECT_EQ(map.tasks[1].work, 0u);
  // :reduce sums only the dense partial.
  u64 reduce_work = 0;
  for (const sim::TaskRecord& t : stage_named(ctx, "sum:reduce").tasks) {
    reduce_work += t.work;
  }
  EXPECT_EQ(reduce_work, width);
}

TEST(SumArrays, ReduceSlicePricesDenseWidthPlusSparseEntries) {
  // A dense partial (every cell hit) and a sparse one (five cells hit,
  // two inputs combined) over a width the reducers slice unevenly.
  engine::Context ctx(reducer_cluster());
  const size_t width = 100;
  std::vector<u64> dense(width, 1);
  std::vector<u64> a(width, 0), b(width, 0);
  a[0] = 1, a[33] = 2, b[33] = 3, b[34] = 1, b[70] = 4, b[99] = 5;
  std::vector<u64> expected(width);
  for (size_t i = 0; i < width; ++i) expected[i] = dense[i] + a[i] + b[i];
  const auto merged =
      ctx.from_partitions(std::vector<std::vector<std::vector<u64>>>{
                              {dense}, {a, b}})
          .sum_arrays(width, "sum");
  EXPECT_EQ(merged, expected);
  const std::vector<size_t> hits = {0, 33, 34, 70, 99};

  const sim::StageRecord& map = stage_named(ctx, "sum:map-combine");
  EXPECT_EQ(map.shuffle_bytes, (8 + width * 8) + (8 + hits.size() * 12));
  ASSERT_EQ(map.tasks.size(), 2u);
  EXPECT_EQ(map.tasks[0].work, width);
  // One unit per entry, plus the width for the second input combined.
  EXPECT_EQ(map.tasks[1].work, hits.size() + width);

  const sim::StageRecord& reduce = stage_named(ctx, "sum:reduce");
  const size_t r = reduce.tasks.size();
  ASSERT_EQ(r, std::min<size_t>(ctx.default_partitions(), width));
  for (size_t t = 0; t < r; ++t) {
    const size_t begin = width * t / r, end = width * (t + 1) / r;
    u64 entries = 0;
    for (size_t id : hits) entries += id >= begin && id < end;
    EXPECT_EQ(reduce.tasks[t].work, (end - begin) + entries) << "slice " << t;
  }
}

TEST(SumArrays, DetSanReplaysASparseTaskClean) {
  for (const bool spill : {false, true}) {
    auto opts = reducer_cluster();
    opts.detsan.enabled = true;
    opts.detsan.sample_rate = 1.0;
    if (spill) opts.cluster.shuffle_buffer_bytes = 1;
    engine::Context ctx(opts);
    simfs::SimFS fs(ctx.cluster());
    ctx.set_spill_fs(&fs);
    // Four partitions of two arrays, each hitting one cell of 40.
    std::vector<std::vector<u64>> arrays(8, std::vector<u64>(40, 0));
    for (size_t i = 0; i < arrays.size(); ++i) arrays[i][5 * i] = i + 1;
    std::vector<u64> expected(40, 0);
    for (size_t i = 0; i < arrays.size(); ++i) expected[5 * i] = i + 1;
    const auto merged =
        ctx.parallelize(std::move(arrays), 4).sum_arrays(40, "sum");
    EXPECT_EQ(merged, expected) << "spill=" << spill;
    // Every partial ships sparse: 8 + 2 * 12 B each.
    EXPECT_EQ(stage_named(ctx, "sum:map-combine").shuffle_bytes, 4u * 32)
        << "spill=" << spill;
    // One replay per map task, plus one re-serialization per spill block.
    EXPECT_EQ(ctx.detsan().tasks_replayed(), spill ? 8u : 4u);
    EXPECT_EQ(ctx.detsan().divergences(), 0u);
    EXPECT_EQ(ctx.memory_budget().spill_blocks_written(), spill ? 4u : 0u);
  }
}

/// The widest merge of `map_tasks` partials, with or without the survivor
/// scan, that still ends on the driver in `ctx`: its ceiling (every partial
/// dense, merged cell by cell, the partials' bytes through the driver's
/// link) against the launch floor of the reduce stage it would run.
size_t widest_driver_merge(const engine::Context& ctx, u32 map_tasks,
                           bool scan) {
  const sim::CostModel& model = ctx.cost_model();
  const auto on_driver = [&](u64 width) {
    sim::StageRecord reduce;
    reduce.tasks.resize(std::min<u64>(ctx.default_partitions(), width));
    return model.compute_seconds((map_tasks + scan) * width) +
               model.driver_link_seconds(map_tasks * (8 + 8 * width)) <=
           sim::stage_seconds(reduce, model);
  };
  size_t width = 1;
  while (on_driver(width + 1)) ++width;
  return width;
}

TEST(SumArrays, MergeEndsOnTheDriverUpToTheReduceLaunchFloor) {
  // The paper's cluster at its default 96 partitions.
  engine::Context::Options opts;
  opts.host_threads = 4;
  opts.fault = engine::FaultProfile{};
  for (const bool scan : {false, true}) {
    const size_t widest = widest_driver_merge(engine::Context(opts), 96, scan);
    EXPECT_GT(widest, 5000u) << "scan=" << scan;
    EXPECT_LT(widest, 6000u) << "scan=" << scan;
    for (const size_t width : {widest, widest + 1}) {
      engine::Context ctx(opts);
      auto rdd = ctx.parallelize(
          std::vector<std::vector<u64>>(96, std::vector<u64>(width, 1)), 96);
      if (scan) {
        EXPECT_EQ(rdd.sum_arrays_at_least(width, u64{96}, "sum").size(),
                  width);
      } else {
        EXPECT_EQ(rdd.sum_arrays(width, "sum"), std::vector<u64>(width, 96));
      }
      const bool driver = width == widest;
      const std::string where =
          "width=" + std::to_string(width) + " scan=" + std::to_string(scan);
      EXPECT_EQ(has_stage(ctx, "sum:aggregate"), driver) << where;
      EXPECT_EQ(has_stage(ctx, "sum:reduce"), !driver) << where;
    }
  }
}

/// Twelve arrays of `width` cells, two per partition over six partitions:
/// the first four partitions' partials hit a few cells and ship sparse,
/// the last two hit most and ship dense.
std::vector<std::vector<u64>> mixed_arrays(size_t width, u64 seed) {
  Rng rng(seed);
  std::vector<std::vector<u64>> arrays(12, std::vector<u64>(width, 0));
  for (size_t n = 0; n < arrays.size(); ++n) {
    for (u64& cell : arrays[n]) {
      if (rng.bernoulli(n < 8 ? 0.04 : 0.7)) cell = 1 + rng.below(9);
    }
  }
  return arrays;
}

/// The cells of `arrays` summed serially, and those reaching `min`.
std::pair<std::vector<u64>, std::vector<std::pair<u32, u64>>> serial_merge(
    const std::vector<std::vector<u64>>& arrays, size_t width, u64 min) {
  std::vector<u64> cells(width, 0);
  for (const auto& a : arrays) {
    for (size_t i = 0; i < width; ++i) cells[i] += a[i];
  }
  std::vector<std::pair<u32, u64>> kept;
  for (size_t i = 0; i < width; ++i) {
    if (cells[i] >= min) kept.emplace_back(static_cast<u32>(i), cells[i]);
  }
  return {cells, kept};
}

TEST(SumArrays, DriverMergeChargesWhatTheReducersWould) {
  const size_t width = 90;
  const u64 min = 6;
  const auto arrays = mixed_arrays(width, 41);
  const auto [cells, kept] = serial_merge(arrays, width, min);
  for (const bool scan : {false, true}) {
    // The reducers' plan, for its prices.
    engine::Context rctx(reducer_cluster());
    auto rrdd = rctx.parallelize(arrays, 6);
    if (scan) {
      EXPECT_EQ(rrdd.sum_arrays_at_least(width, min, "sum"), kept);
    } else {
      EXPECT_EQ(rrdd.sum_arrays(width, "sum"), cells);
    }
    u64 reduce_work = 0;
    for (const sim::TaskRecord& t : stage_named(rctx, "sum:reduce").tasks) {
      reduce_work += t.work;
    }
    const sim::StageRecord& rmap = stage_named(rctx, "sum:map-combine");

    // The driver's, under a 16 B shuffle buffer that would spill a shuffle.
    auto opts = small_cluster();
    opts.cluster.shuffle_buffer_bytes = 16;
    engine::Context ctx(opts);
    simfs::SimFS fs(ctx.cluster());
    ctx.set_spill_fs(&fs);
    auto rdd = ctx.parallelize(arrays, 6);
    if (scan) {
      EXPECT_EQ(rdd.sum_arrays_at_least(width, min, "sum"), kept);
    } else {
      EXPECT_EQ(rdd.sum_arrays(width, "sum"), cells);
    }
    const std::string where = "scan=" + std::to_string(scan);
    const auto& stages = ctx.report().stages();
    ASSERT_EQ(stages.size(), 2u) << where;
    const sim::StageRecord& map = stages[0];
    EXPECT_EQ(map.label, "sum:map-combine");
    EXPECT_EQ(map.shuffle_bytes, 0u) << where;
    ASSERT_EQ(map.tasks.size(), rmap.tasks.size());
    for (size_t t = 0; t < map.tasks.size(); ++t) {
      EXPECT_EQ(map.tasks[t].work, rmap.tasks[t].work) << where;
    }
    const sim::StageRecord& aggregate = stages[1];
    EXPECT_EQ(aggregate.label, "sum:aggregate");
    EXPECT_EQ(aggregate.kind, sim::StageKind::kOverhead);
    EXPECT_TRUE(aggregate.tasks.empty());
    EXPECT_EQ(aggregate.driver_work, reduce_work) << where;
    // The partials the reducers would have shuffled, through the link.
    EXPECT_EQ(aggregate.driver_fetch_bytes, rmap.shuffle_bytes) << where;
    EXPECT_EQ(aggregate.shuffle_bytes, 0u) << where;
    EXPECT_EQ(ctx.memory_budget().spill_blocks_written(), 0u) << where;
    EXPECT_EQ(ctx.memory_budget().shuffle_buffered_bytes(), 0u) << where;
  }
}

TEST(SumArrays, ReducersReturnOnlySurvivors) {
  const size_t width = 90;
  const u64 min = 25;
  const auto arrays = mixed_arrays(width, 43);
  const auto [cells, kept] = serial_merge(arrays, width, min);
  ASSERT_FALSE(kept.empty());
  engine::Context dense_ctx(reducer_cluster());
  EXPECT_EQ(dense_ctx.parallelize(arrays, 6).sum_arrays(width, "sum"), cells);
  engine::Context ctx(reducer_cluster());
  EXPECT_EQ(
      ctx.parallelize(arrays, 6).sum_arrays_at_least(width, min, "sum"), kept);

  const sim::StageRecord& dense = stage_named(dense_ctx, "sum:reduce");
  const sim::StageRecord& reduce = stage_named(ctx, "sum:reduce");
  const size_t r = reduce.tasks.size();
  ASSERT_EQ(dense.tasks.size(), r);
  u64 dense_bytes = 0, survivor_bytes = 0;
  for (size_t t = 0; t < r; ++t) {
    const size_t begin = width * t / r, end = width * (t + 1) / r;
    u64 survivors = 0;
    for (const auto& [id, sum] : kept) survivors += id >= begin && id < end;
    // The slice merges as before, then scans each of its cells once.
    EXPECT_EQ(reduce.tasks[t].work, dense.tasks[t].work + (end - begin))
        << "slice " << t;
    dense_bytes += 8 + 8 * (end - begin);
    survivor_bytes += 8 + 12 * survivors;
  }
  EXPECT_EQ(dense.driver_fetch_bytes, dense_bytes);
  EXPECT_EQ(reduce.driver_fetch_bytes, survivor_bytes);
  EXPECT_LT(survivor_bytes, dense_bytes);
}

TEST(SumArrays, BothPlansMatchASerialReference) {
  const size_t width = 90;
  const u64 min = 6;
  const auto arrays = mixed_arrays(width, 47);
  const auto [cells, kept] = serial_merge(arrays, width, min);
  enum Variant { kPlain, kDetSan, kFaults, kSpill };
  for (const bool reducers : {false, true}) {
    for (const Variant v : {kPlain, kDetSan, kFaults, kSpill}) {
      auto opts = reducers ? reducer_cluster() : small_cluster();
      if (v == kDetSan) {
        opts.detsan.enabled = true;
        opts.detsan.sample_rate = 1.0;
      }
      if (v == kFaults) {
        opts.fault.seed = 31;
        opts.fault.task_failure_p = 0.3;
        opts.fault.max_task_attempts = 12;
      }
      if (v == kSpill) opts.cluster.shuffle_buffer_bytes = 1;
      engine::Context ctx(opts);
      simfs::SimFS fs(ctx.cluster());
      ctx.set_spill_fs(&fs);
      auto rdd = ctx.parallelize(arrays, 6);
      const std::string where = std::string(reducers ? "reducers" : "driver") +
                                " variant=" + std::to_string(v);
      EXPECT_EQ(rdd.sum_arrays(width, "sum"), cells) << where;
      EXPECT_EQ(rdd.sum_arrays_at_least(width, min, "sum"), kept) << where;
      EXPECT_EQ(has_stage(ctx, "sum:reduce"), reducers) << where;
      EXPECT_EQ(has_stage(ctx, "sum:aggregate"), !reducers) << where;
      if (v == kDetSan) {
        EXPECT_GT(ctx.detsan().tasks_replayed(), 0u) << where;
        EXPECT_EQ(ctx.detsan().divergences(), 0u) << where;
      }
      if (v == kFaults) {
        EXPECT_GT(ctx.fault_injector().task_retries(), 0u) << where;
      }
      EXPECT_EQ(ctx.memory_budget().spill_blocks_written(),
                v == kSpill && reducers ? 12u : 0u)
          << where;
    }
  }
}

/// One sum_arrays over 96 partitions of zero-heavy arrays on a fresh
/// context with `threads` host threads, merged on the reducers or on the
/// driver. With `spill`, a 1-byte shuffle buffer sends every partial the
/// reducers merge through simfs.
struct FoldRun {
  std::vector<u64> merged;
  std::vector<sim::StageRecord> stages;
  double sim_seconds = 0.0;
  u64 spill_blocks = 0;
  u64 spill_raw = 0;
};

FoldRun sum_96_partitions(const std::vector<std::vector<u64>>& arrays,
                          size_t width, u32 threads, bool reducers,
                          bool spill) {
  auto opts = reducers ? reducer_cluster() : small_cluster();
  opts.host_threads = threads;
  if (spill) opts.cluster.shuffle_buffer_bytes = 1;
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  FoldRun run;
  run.merged = ctx.parallelize(arrays, 96).sum_arrays(width, "fold");
  run.stages = ctx.report().stages();
  run.sim_seconds = ctx.sim_seconds();
  run.spill_blocks = ctx.memory_budget().spill_blocks_written();
  run.spill_raw = ctx.memory_budget().spill_bytes_raw();
  return run;
}

TEST(SumArrays, FoldIsIdenticalAcrossHostThreadCounts) {
  // 200 arrays over 96 partitions: every task folds two or three inputs,
  // and tasks outnumber every pool's fold slots. The first half hits few
  // cells and the second most, so both forms ship and spill.
  const size_t width = 257;
  Rng rng(29);
  std::vector<std::vector<u64>> arrays(200, std::vector<u64>(width, 0));
  std::vector<u64> expected(width, 0);
  for (size_t n = 0; n < arrays.size(); ++n) {
    for (size_t i = 0; i < width; ++i) {
      if (rng.bernoulli(n < 100 ? 0.05 : 0.6)) arrays[n][i] = rng.below(50);
      expected[i] += arrays[n][i];
    }
  }
  // What each partition (parallelize's contiguous slices: 2 arrays each,
  // 3 in the first 8) ships in the smaller form.
  u64 shipped = 0;
  u32 sparse_tasks = 0;
  for (size_t p = 0, at = 0; p < 96; ++p) {
    const size_t len = p < 8 ? 3 : 2;
    u64 entries = 0;
    for (size_t i = 0; i < width; ++i) {
      u64 cell = 0;
      for (size_t n = at; n < at + len; ++n) cell += arrays[n][i];
      entries += cell != 0;
    }
    at += len;
    const u64 sparse = 8 + 12 * entries, dense = 8 + 8 * width;
    sparse_tasks += sparse < dense;
    shipped += std::min(sparse, dense);
  }
  ASSERT_GT(sparse_tasks, 0u);
  ASSERT_LT(sparse_tasks, 96u);

  for (const auto& [reducers, spill] :
       {std::pair{true, false}, std::pair{true, true},
        std::pair{false, false}, std::pair{false, true}}) {
    const std::string plan = std::string(reducers ? "reducers" : "driver") +
                             " spill=" + std::to_string(spill);
    const FoldRun ref = sum_96_partitions(arrays, width, 1, reducers, spill);
    EXPECT_EQ(ref.merged, expected) << plan;
    if (reducers) {
      EXPECT_EQ(ref.spill_blocks, spill ? 96u : 0u);
      EXPECT_EQ(ref.stages.front().shuffle_bytes, shipped) << plan;
      // Each spill block holds its partial in the form it ships.
      EXPECT_EQ(ref.spill_raw, spill ? shipped : 0u);
    } else {
      // The driver fetches what the reducers would have shuffled, and
      // never spills.
      EXPECT_EQ(ref.spill_blocks, 0u) << plan;
      EXPECT_EQ(ref.stages.front().shuffle_bytes, 0u) << plan;
      ASSERT_EQ(ref.stages.size(), 2u) << plan;
      EXPECT_EQ(ref.stages.back().label, "fold:aggregate");
      EXPECT_EQ(ref.stages.back().driver_fetch_bytes, shipped) << plan;
    }
    for (const u32 threads : {3u, 8u}) {
      const FoldRun run =
          sum_96_partitions(arrays, width, threads, reducers, spill);
      const std::string where =
          plan + " threads=" + std::to_string(threads);
      EXPECT_EQ(run.merged, ref.merged) << where;
      EXPECT_EQ(run.spill_blocks, ref.spill_blocks) << where;
      ASSERT_EQ(run.stages.size(), ref.stages.size()) << where;
      for (size_t s = 0; s < ref.stages.size(); ++s) {
        const sim::StageRecord& a = run.stages[s];
        const sim::StageRecord& b = ref.stages[s];
        const std::string stage = where + " " + b.label;
        EXPECT_EQ(a.label, b.label) << stage;
        EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << stage;
        EXPECT_EQ(a.dfs_read_bytes, b.dfs_read_bytes) << stage;
        EXPECT_EQ(a.dfs_write_bytes, b.dfs_write_bytes) << stage;
        EXPECT_EQ(a.driver_work, b.driver_work) << stage;
        EXPECT_EQ(a.driver_fetch_bytes, b.driver_fetch_bytes) << stage;
        ASSERT_EQ(a.tasks.size(), b.tasks.size()) << stage;
        for (size_t t = 0; t < b.tasks.size(); ++t) {
          EXPECT_EQ(a.tasks[t].work, b.tasks[t].work) << stage << " task " << t;
        }
      }
      EXPECT_EQ(run.sim_seconds, ref.sim_seconds) << where;
    }
  }
}

// ---- adversarial hashing ------------------------------------------------

/// Deterministic hash sending every key to the same reduce bucket.
struct CollidingHash {
  size_t operator()(int) const { return 7; }
};

TEST(ReduceByKey, AdversarialHashAllKeysOneBucket) {
  engine::Context ctx(small_cluster());
  std::vector<std::pair<int, u64>> pairs;
  std::unordered_map<int, u64> expected;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const int k = static_cast<int>(rng.below(500));
    pairs.emplace_back(k, 1);
    expected[k] += 1;
  }
  auto result = ctx.parallelize(std::move(pairs), 8)
                    .reduce_by_key([](u64 a, u64 b) { return a + b; },
                                   /*out_partitions=*/6, CollidingHash{})
                    .collect();
  // Correct totals even though all 500 keys land in one reduce bucket.
  ASSERT_EQ(result.size(), expected.size());
  for (const auto& [k, v] : result) EXPECT_EQ(v, expected.at(k)) << k;
}

// ---- stage-pricing exactness --------------------------------------------

TEST(Pricing, SplitWorkDistributesRemainderExactly) {
  for (u64 total : {0ull, 1ull, 999ull, 1000ull, 12345ull}) {
    for (u32 tasks : {1u, 3u, 7u, 16u}) {
      const auto recs = sim::split_work(total, tasks);
      ASSERT_EQ(recs.size(), tasks);
      u64 sum = 0, lo = ~0ull, hi = 0;
      for (const auto& r : recs) {
        sum += r.work;
        lo = std::min(lo, r.work);
        hi = std::max(hi, r.work);
      }
      EXPECT_EQ(sum, total) << total << "/" << tasks;
      EXPECT_LE(hi - lo, 1u) << "split must be even";
    }
  }
}

TEST(Pricing, YafimParseStageTotalIsExact) {
  const auto db = random_db(12, 1009, 0.3, 2);
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.3;
  (void)yafim_mine(ctx, fs, db, opt);

  bool found = false;
  for (const auto& s : ctx.report().stages()) {
    if (s.label != "load:textFile+parse") continue;
    found = true;
    u64 priced = 0;
    for (const auto& t : s.tasks) priced += t.work;
    EXPECT_EQ(priced, 1009u * (1 + ctx.cluster().record_parse_work));
  }
  EXPECT_TRUE(found);
}

/// Summed task work of the stage labelled `label`, which must exist once.
u64 stage_work(const engine::Context& ctx, const std::string& label) {
  u64 work = 0;
  int found = 0;
  for (const auto& s : ctx.report().stages()) {
    if (s.label != label) continue;
    ++found;
    for (const auto& t : s.tasks) work += t.work;
  }
  EXPECT_EQ(found, 1) << label;
  return work;
}

TEST(Pricing, PfpAndDistEclatParseStageTotalsAreExact) {
  // 1009 rows over 7 load tasks: the parse total leaves a remainder that
  // pricing each task at total / tasks would drop.
  const auto db = random_db(12, 1009, 0.3, 2);
  constexpr u32 kTasks = 7;
  const u64 total = 1009u * (1 + small_cluster().cluster.record_parse_work);
  ASSERT_NE(total % kTasks, 0u);
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    PfpOptions opt;
    opt.min_support = 0.3;
    opt.partitions = kTasks;
    (void)pfp_mine(ctx, fs, db, opt);
    EXPECT_EQ(stage_work(ctx, "pfp:load+parse"), total);
  }
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    DistEclatOptions opt;
    opt.min_support = 0.3;
    opt.partitions = kTasks;
    (void)dist_eclat_mine(ctx, fs, db, opt);
    EXPECT_EQ(stage_work(ctx, "disteclat:load+parse"), total);
  }
}

// ---- dense-path stage accounting ---------------------------------------

TEST(CountModes, DensePathRecordsArrayReduceCounters) {
  const auto db = random_db(15, 220, 0.35, 21);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, CountMode::kCandidateId, kSpc);
  obs::set_enabled(false);
  EXPECT_GT(obs::counter_value(obs::CounterId::kArrayReduceBytes), 0u);
  EXPECT_GT(obs::counter_value(obs::CounterId::kArrayReduceCells), 0u);
}

TEST(CountModes, DenseShuffleSmallerThanFaithful) {
  // The headline accounting claim: candidate-id counting prices its
  // shuffle by the candidate-array width, the faithful path by hits.
  const auto db = random_db(16, 400, 0.35, 33);
  engine::Context ctx_f(small_cluster());
  simfs::SimFS fs_f(ctx_f.cluster());
  YafimOptions faithful;
  faithful.min_support = 0.2;
  faithful.count_mode = CountMode::kItemsetKey;
  (void)yafim_mine(ctx_f, fs_f, db, faithful);

  engine::Context ctx_d(small_cluster());
  simfs::SimFS fs_d(ctx_d.cluster());
  YafimOptions dense = faithful;
  dense.count_mode = CountMode::kCandidateId;
  (void)yafim_mine(ctx_d, fs_d, db, dense);

  EXPECT_LT(ctx_d.report().total_shuffle_bytes(),
            ctx_f.report().total_shuffle_bytes());
}

}  // namespace
}  // namespace yafim::fim
