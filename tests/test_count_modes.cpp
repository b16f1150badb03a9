// Count-mode equivalence and pricing tests.
//
// The dense candidate-id path (CountMode::kCandidateId) and the vertical
// bitmap path (CountMode::kVerticalBitmap) must be exact drop-ins for the
// paper-faithful itemset-keyed path: bit-identical FrequentItemsets across
// pass batching, fault/corruption injection, checkpoint resume and both
// engines, with mode-invariant observability counters (candidate
// generation, broadcast/DFS traffic) agreeing as well. Also covers the
// sum_arrays RDD action the dense paths are built on, the adversarial-hash
// reduce bucket case, and the stage-pricing exactness fixes (split_work).
#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "engine/error.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/checkpoint.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId,
                                   CountMode::kVerticalBitmap};

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(3);
  opts.host_threads = 4;
  // Pin injection off so exact counter assertions hold even when the whole
  // binary runs under the CI fault matrix; faulty cases opt in explicitly.
  opts.fault = engine::FaultProfile{};
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

MiningRun run_yafim(const TransactionDB& db, CountMode mode, u32 combine,
                    engine::Context::Options copts = small_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = mode;
  opt.combine_passes = combine;
  return yafim_mine(ctx, fs, db, opt);
}

// ---- bit-identity matrix ------------------------------------------------

TEST(CountModes, YafimBitIdenticalAcrossModesAndBatching) {
  const auto db = random_db(16, 250, 0.35, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GT(seq.itemsets.total(), 0u);

  for (u32 combine : {1u, 3u}) {
    const auto faithful = run_yafim(db, CountMode::kItemsetKey, combine);
    EXPECT_TRUE(faithful.itemsets.same_itemsets(seq.itemsets))
        << "combine=" << combine;
    for (CountMode mode :
         {CountMode::kCandidateId, CountMode::kVerticalBitmap}) {
      const auto run = run_yafim(db, mode, combine);
      EXPECT_TRUE(run.itemsets.same_itemsets(faithful.itemsets))
          << count_mode_name(mode) << " combine=" << combine;
      // Same candidate levels were generated and verified in every mode.
      ASSERT_EQ(run.passes.size(), faithful.passes.size());
      for (size_t i = 0; i < run.passes.size(); ++i) {
        EXPECT_EQ(run.passes[i].k, faithful.passes[i].k);
        EXPECT_EQ(run.passes[i].candidates, faithful.passes[i].candidates);
        EXPECT_EQ(run.passes[i].frequent, faithful.passes[i].frequent);
      }
    }
  }
}

TEST(CountModes, YafimBitIdenticalUnderFaultInjection) {
  const auto db = random_db(14, 200, 0.4, 7);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, 1);

  for (CountMode mode : kAllModes) {
    for (u32 combine : {1u, 3u}) {
      auto copts = small_cluster();
      copts.fault.seed = 99;
      copts.fault.task_failure_p = 0.05;
      copts.fault.straggler_p = 0.05;
      const auto run = run_yafim(db, mode, combine, copts);
      EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
          << count_mode_name(mode) << " combine=" << combine;
    }
  }
}

TEST(CountModes, YafimBitIdenticalUnderCorruptionInjection) {
  const auto db = random_db(14, 200, 0.4, 8);
  const auto reference = run_yafim(db, CountMode::kItemsetKey, 1);

  for (CountMode mode : kAllModes) {
    auto copts = small_cluster();
    copts.cluster.hdfs_block_bytes = 1024;
    copts.fault.corrupt.seed = 11;
    copts.fault.corrupt.block_p = 0.05;
    copts.fault.corrupt.cached_p = 0.1;
    const auto run = run_yafim(db, mode, 1, copts);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
  }
}

TEST(CountModes, BitmapResumeFromCheckpointIsBitIdentical) {
  // Crash mid-mine in bitmap mode, resume from the snapshot: the rebuilt
  // vertical index (lazily re-created on the first post-resume pass) must
  // not perturb the mined output.
  const auto db = random_db(16, 200, 0.45, 100);
  const auto reference = run_yafim(db, CountMode::kVerticalBitmap, 1);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to test resume";

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_bitmap_resume";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());
  engine::Context::Options copts = small_cluster();
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kVerticalBitmap;
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
  const auto yafim_ref = run_yafim(db, CountMode::kCandidateId, 1);

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
/// candidate generation and broadcast/DFS traffic are identical across all
/// three modes.
const obs::CounterId kModeInvariantCounters[] = {
    obs::CounterId::kCandidatesGenerated,
    obs::CounterId::kCandidatesPruned,
    obs::CounterId::kBroadcastBytes,
    obs::CounterId::kDfsReadBytes,
};

/// Probe-effort counters: identical between the two probing modes, and
/// exactly zero for the bitmap mode (no tree walking happens at all).
const obs::CounterId kProbeCounters[] = {
    obs::CounterId::kHashTreeNodesVisited,
    obs::CounterId::kHashTreeCandChecks,
};

std::vector<u64> traced_counters(const TransactionDB& db, CountMode mode,
                                 u32 combine, engine::Context::Options copts,
                                 std::span<const obs::CounterId> ids) {
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, mode, combine, copts);
  obs::set_enabled(false);
  std::vector<u64> values;
  for (obs::CounterId id : ids) values.push_back(obs::counter_value(id));
  return values;
}

TEST(CountModes, ModeInvariantCountersAgree) {
  const auto db = random_db(15, 220, 0.35, 21);
  for (u32 combine : {1u, 3u}) {
    const auto faithful = traced_counters(
        db, CountMode::kItemsetKey, combine, small_cluster(),
        kModeInvariantCounters);
    for (CountMode mode :
         {CountMode::kCandidateId, CountMode::kVerticalBitmap}) {
      const auto values = traced_counters(db, mode, combine, small_cluster(),
                                          kModeInvariantCounters);
      ASSERT_EQ(faithful.size(), values.size());
      for (size_t i = 0; i < faithful.size(); ++i) {
        EXPECT_EQ(faithful[i], values[i])
            << count_mode_name(mode) << " "
            << obs::counter_name(kModeInvariantCounters[i])
            << " combine=" << combine;
      }
    }
  }
}

TEST(CountModes, ProbeCountersAgreeBetweenProbingModes) {
  const auto db = random_db(15, 220, 0.35, 21);
  const auto faithful = traced_counters(db, CountMode::kItemsetKey, 1,
                                        small_cluster(), kProbeCounters);
  const auto dense = traced_counters(db, CountMode::kCandidateId, 1,
                                     small_cluster(), kProbeCounters);
  EXPECT_EQ(faithful, dense);
  EXPECT_GT(dense[0], 0u) << "hash-tree probes missing";
}

TEST(CountModes, BitmapModeSkipsProbesAndRecordsBitmapWork) {
  const auto db = random_db(15, 220, 0.35, 21);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, CountMode::kVerticalBitmap, 1);
  obs::set_enabled(false);
  // No per-transaction tree walking on this path...
  EXPECT_EQ(obs::counter_value(obs::CounterId::kHashTreeNodesVisited), 0u);
  EXPECT_EQ(obs::counter_value(obs::CounterId::kHashTreeCandChecks), 0u);
  // ...the work shows up in the bitmap counters instead.
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
        traced_counters(db, mode, 1, copts, kModeInvariantCounters);
    const auto second =
        traced_counters(db, mode, 1, copts, kModeInvariantCounters);
    EXPECT_EQ(first, second) << count_mode_name(mode);
  }
}

TEST(CountModes, BitIdenticalUnderComposedMemShrinkAndTaskFailures) {
  // Two fault axes in the SAME run: a mid-run executor-memory shrink (which
  // flips later passes to the partitioned candidate store) composed with
  // task-failure injection (which perturbs the retry schedule). Every mode
  // must still produce the clean run's exact itemsets -- the degraded
  // counting path and the retried tasks may not interact destructively.
  const auto db = random_db(14, 200, 0.4, 19);
  const auto clean = run_yafim(db, CountMode::kItemsetKey, 1);
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
  engine::Context ctx(small_cluster());
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

/// One sum_arrays over 96 partitions of zero-heavy arrays on a fresh
/// context with `threads` host threads. With `spill`, a 1-byte shuffle
/// buffer sends every partial through simfs.
struct FoldRun {
  std::vector<u64> merged;
  std::vector<sim::StageRecord> stages;
  double sim_seconds = 0.0;
  u64 spill_blocks = 0;
};

FoldRun sum_96_partitions(const std::vector<std::vector<u64>>& arrays,
                          size_t width, u32 threads, bool spill) {
  auto opts = small_cluster();
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
  return run;
}

TEST(SumArrays, FoldIsIdenticalAcrossHostThreadCounts) {
  // 200 arrays over 96 partitions: every task folds two or three inputs,
  // and tasks outnumber every pool's fold slots.
  const size_t width = 257;
  Rng rng(29);
  std::vector<std::vector<u64>> arrays(200, std::vector<u64>(width, 0));
  std::vector<u64> expected(width, 0);
  for (auto& a : arrays) {
    for (size_t i = 0; i < width; ++i) {
      if (rng.bernoulli(0.2)) a[i] = rng.below(50);
      expected[i] += a[i];
    }
  }

  for (const bool spill : {false, true}) {
    const FoldRun ref = sum_96_partitions(arrays, width, 1, spill);
    EXPECT_EQ(ref.merged, expected) << "spill=" << spill;
    EXPECT_EQ(ref.spill_blocks, spill ? 96u : 0u);
    for (const u32 threads : {3u, 8u}) {
      const FoldRun run = sum_96_partitions(arrays, width, threads, spill);
      const std::string where = "threads=" + std::to_string(threads) +
                                " spill=" + std::to_string(spill);
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

TEST(Pricing, TextFileStageTotalIsExact) {
  engine::Context::Options copts = small_cluster();
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  // 1009 lines (prime): guaranteed not divisible by the task count, which
  // is what used to truncate up to tasks-1 work units off the stage.
  std::string text;
  for (int i = 0; i < 1009; ++i) text += "line" + std::to_string(i) + "\n";
  fs.write("hdfs://pricing/input.txt",
           std::vector<u8>(text.begin(), text.end()));

  auto lines = ctx.text_file(fs, "hdfs://pricing/input.txt");
  ASSERT_EQ(lines.count("count"), 1009u);

  const auto& stage = ctx.report().stages().front();
  ASSERT_TRUE(stage.label.rfind("textFile:", 0) == 0);
  u64 priced = 0;
  for (const auto& t : stage.tasks) priced += t.work;
  EXPECT_EQ(priced, 1009u * (1 + ctx.cluster().record_parse_work));
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

// ---- dense-path stage accounting ---------------------------------------

TEST(CountModes, DensePathRecordsArrayReduceCounters) {
  const auto db = random_db(15, 220, 0.35, 21);
  obs::CounterRegistry::instance().reset_all();
  obs::set_enabled(true);
  (void)run_yafim(db, CountMode::kCandidateId, 1);
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
