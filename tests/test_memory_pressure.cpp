// Memory-pressure-aware execution tests.
//
// The broadcast ceiling must bend, not break: when a pass's candidate trees
// outgrow the executor-memory budget (engine::MemoryBudget), the miners
// degrade to the partitioned candidate store; when shuffle buffers outgrow
// theirs, map outputs spill to simfs (optionally yz-compressed). Every
// degradation must be invisible in the mined output -- bit-identical
// FrequentItemsets across full / partitioned / spilling runs, including a
// checkpoint resume that lands mid-degradation -- and visible in the
// always-on counters and the linter (YL002 downgraded error -> note when
// the fallback engages). Also pins the Context::broadcast live-fraction
// pricing round-up under executor blacklisting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "engine/broadcast.h"
#include "engine/context.h"
#include "engine/lint.h"
#include "engine/rdd.h"
#include "fim/apriori_seq.h"
#include "fim/candidate_gen.h"
#include "fim/checkpoint.h"
#include "fim/count_core.h"
#include "fim/hash_tree.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace yafim::fim {
namespace {

constexpr CountMode kAllModes[] = {CountMode::kItemsetKey,
                                   CountMode::kCandidateId};

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

/// Reaches pass 3 at 20% support, whose 3 KB candidate tree outgrows the
/// tight budgets below in every count mode: the dense mode counts pass 2
/// on the pair matrix, whose item-list payload never falls back.
const TransactionDB& pass3_db() {
  static const TransactionDB db = random_db(16, 200, 0.45, 100);
  return db;
}

MiningRun run_yafim(const TransactionDB& db, const YafimOptions& opt,
                    engine::Context::Options copts = small_cluster()) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster(), copts.fault.corrupt);
  return yafim_mine(ctx, fs, db, opt);
}

// ---- first-item ranges (split_first_items) ------------------------------

/// Levels k = 2..4 over items [0, 14), each a seeded sample of every
/// k-itemset, as one batch.
CandidateBatch three_level_batch(u64 seed) {
  Rng rng(seed);
  std::vector<ItemsetRows> levels;
  ItemsetRows every{1, {}};
  for (Item i = 0; i < 14; ++i) every.items.push_back(i);
  for (u32 k = 2; k <= 4; ++k) {
    every = apriori_gen_rows(every, k);
    ItemsetRows sample{k, {}};
    for (size_t r = 0; r < every.size(); ++r) {
      if (rng.bernoulli(0.3)) {
        sample.items.insert(sample.items.end(), every.row(r),
                            every.row(r) + k);
      }
    }
    levels.push_back(std::move(sample));
  }
  return CandidateBatch(std::move(levels));
}

TEST(FirstItemSplit, RangesTileTheBatchWithinTheCap) {
  for (const u64 seed : {3u, 4u, 5u}) {
    const CandidateBatch batch = three_level_batch(seed);
    ASSERT_EQ(batch.num_levels(), 3u);
    std::set<Item> classes;
    for (const LevelView& level : batch.levels()) {
      for (u32 ci = 0; ci < level.size(); ++ci) {
        classes.insert(level.row(ci)[0]);
      }
    }
    const u64 payload = DenseKernel(batch.levels()).payload_bytes();
    for (const u64 cap : {~u64{0}, payload, payload / 2, payload / 5, u64{1}}) {
      const std::string where =
          "seed " + std::to_string(seed) + " cap " + std::to_string(cap);
      const std::vector<FirstItemRange> ranges =
          split_first_items(batch.levels(), cap);
      if (cap >= payload) {
        ASSERT_EQ(ranges.size(), 1u) << where;
        EXPECT_EQ(ranges.front().payload_bytes, payload) << where;
      }
      if (cap == 1) {
        EXPECT_EQ(ranges.size(), classes.size()) << where;
      }
      if (cap == payload / 5) {
        EXPECT_GE(ranges.size(), 5u) << where;
      }
      std::vector<u32> seen(batch.id_space(), 0);
      Item prev_last = 0;
      for (size_t r = 0; r < ranges.size(); ++r) {
        const FirstItemRange& range = ranges[r];
        ASSERT_FALSE(range.levels.empty()) << where;
        Item lo = ~Item{0};
        Item hi = 0;
        u64 tries = 0;
        for (const LevelView& slice : range.levels) {
          ASSERT_GT(slice.size(), 0u) << where;
          // A contiguous run of the batch level of its size, at its
          // batch-global ids.
          const LevelView& level = batch.levels()[slice.k() - 2];
          ASSERT_GE(slice.id_offset, level.id_offset) << where;
          const u64 at = slice.id_offset - level.id_offset;
          ASSERT_LE(at + slice.size(), level.size()) << where;
          for (u32 ci = 0; ci < slice.size(); ++ci) {
            EXPECT_EQ(slice.itemset(ci),
                      level.itemset(static_cast<u32>(at + ci)))
                << where;
            ++seen[slice.id_offset + ci];
            lo = std::min(lo, slice.row(ci)[0]);
            hi = std::max(hi, slice.row(ci)[0]);
          }
          tries += CandidateTrie(slice).payload_bytes();
        }
        // Ranges ascend by first item and do not overlap.
        EXPECT_EQ(range.first_item, lo) << where;
        if (r > 0) {
          EXPECT_GT(lo, prev_last) << where;
        }
        prev_last = hi;
        // What the range's kernel ships (less if its slices happen to be a
        // whole pair batch), within the cap unless the range is one
        // first-item class.
        EXPECT_EQ(range.payload_bytes, tries) << where;
        const DenseKernel kernel(range.levels);
        if (kernel.pairs()) {
          EXPECT_LT(kernel.payload_bytes(), tries) << where;
        } else {
          EXPECT_EQ(kernel.payload_bytes(), tries) << where;
        }
        if (range.payload_bytes > cap) {
          EXPECT_EQ(lo, hi) << where;
        }
      }
      // Every row lands in exactly one range.
      EXPECT_EQ(seen, std::vector<u32>(batch.id_space(), 1)) << where;
    }
  }
}

// ---- bit-identity: partitioned broadcast --------------------------------

TEST(MemoryPressure, PartitionedBroadcastBitIdenticalAcrossCountModes) {
  const auto db = random_db(16, 250, 0.35, 42);
  AprioriOptions sopt;
  sopt.min_support = 0.2;
  const auto seq = apriori_mine(db, sopt);
  ASSERT_GT(seq.itemsets.total(), 0u);

  YafimOptions base;
  base.min_support = 0.2;
  base.count_mode = CountMode::kItemsetKey;
  base.broadcast_mode = BroadcastMode::kFull;

  for (CombineStrategy combining :
       {CombineStrategy::kSinglePass, CombineStrategy::kDynamic}) {
    // Speculative levels from combined passes add zero-frequent pass
    // entries, so the per-pass comparison must hold `combining` fixed.
    YafimOptions full_opt = base;
    full_opt.combining.strategy = combining;
    const auto full = run_yafim(db, full_opt);
    EXPECT_TRUE(full.itemsets.same_itemsets(seq.itemsets))
        << "combining=" << static_cast<int>(combining);
    for (CountMode mode : kAllModes) {
      YafimOptions opt = full_opt;
      opt.count_mode = mode;
      opt.broadcast_mode = BroadcastMode::kPartitioned;
      const auto part = run_yafim(db, opt);
      EXPECT_TRUE(part.itemsets.same_itemsets(full.itemsets))
          << count_mode_name(mode)
          << " combining=" << static_cast<int>(combining);
      // Same candidate levels generated and verified in every mode.
      ASSERT_EQ(part.passes.size(), full.passes.size());
      for (size_t i = 0; i < part.passes.size(); ++i) {
        EXPECT_EQ(part.passes[i].candidates, full.passes[i].candidates);
        EXPECT_EQ(part.passes[i].frequent, full.passes[i].frequent);
      }
    }
  }
}

/// Range-count boundary cases for the partitioned store: a target of one
/// range (degenerate -- the "partitioned" plan with the whole batch in one
/// place) and a target above the number of distinct first items (each item
/// its own range). Both must merge per-range dense arrays via sum_arrays
/// into exactly the counts the itemset-keyed shuffle produces.
TEST(MemoryPressure, ShardCountBoundaryCasesMatchItemsetKeyCounts) {
  const auto db = random_db(16, 220, 0.35, 9);
  YafimOptions faithful;
  faithful.min_support = 0.2;
  faithful.count_mode = CountMode::kItemsetKey;
  faithful.broadcast_mode = BroadcastMode::kFull;
  const auto reference = run_yafim(db, faithful);

  for (u32 shards : {1u, 3u, 257u}) {
    YafimOptions opt = faithful;
    opt.count_mode = CountMode::kCandidateId;
    opt.broadcast_mode = BroadcastMode::kPartitioned;
    opt.broadcast_shards = shards;
    const auto run = run_yafim(db, opt);
    // same_itemsets compares support counts cell by cell, so agreement here
    // means every shard-boundary merge produced the exact reference count.
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << "shards=" << shards;
  }
}

TEST(MemoryPressure, AutoModeFallsBackUnderTinyBudgetAndStaysExact) {
  const TransactionDB& db = pass3_db();
  YafimOptions ref_opt;
  ref_opt.min_support = 0.2;
  const auto reference = run_yafim(db, ref_opt);

  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1024;  // smaller than any real tree
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt = ref_opt;
  opt.broadcast_mode = BroadcastMode::kAuto;
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u);
}

TEST(MemoryPressure, MrAprioriPartitionedSubJobsBitIdentical) {
  const TransactionDB& db = pass3_db();
  YafimOptions ref_opt;
  ref_opt.min_support = 0.2;
  const auto reference = run_yafim(db, ref_opt);

  for (CountMode mode : kAllModes) {
    // Below pass 3's 952 B trie, which the dense mode would ship whole.
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = 512;
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    MrAprioriOptions opt;
    opt.min_support = 0.2;
    opt.count_mode = mode;
    opt.broadcast_mode = BroadcastMode::kAuto;
    const auto run = mr_apriori_mine(ctx, fs, db, opt);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets))
        << count_mode_name(mode);
    EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u)
        << count_mode_name(mode);
  }
}

// ---- bit-identity: shuffle spill ----------------------------------------

TEST(MemoryPressure, ShuffleSpillBitIdenticalAndCounted) {
  const auto db = random_db(16, 300, 0.35, 5);
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kCandidateId;
  const auto reference = run_yafim(db, opt);

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 512;  // force spill on every shuffle
  // Free task launches put every count merge on the reducers' shuffle:
  // merges this narrow would otherwise end on the driver, which never
  // spills.
  copts.cluster.spark_task_launch_s = 0.0;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));

  const engine::MemoryBudget& mb = ctx.memory_budget();
  EXPECT_GT(mb.spill_blocks_written(), 0u);
  // Every spilled block was read back (restore is not optional).
  EXPECT_EQ(mb.spill_blocks_read(), mb.spill_blocks_written());
  // Sparse count arrays are zero-heavy: the yz codec must actually shrink
  // them, and the stored-bytes ledger must see the compressed size.
  EXPECT_GT(mb.spill_bytes_raw(), 0u);
  EXPECT_LT(mb.spill_bytes_stored(), mb.spill_bytes_raw());
}

TEST(MemoryPressure, UncompressedSpillAlsoExact) {
  const auto db = random_db(16, 300, 0.35, 5);
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kCandidateId;
  const auto reference = run_yafim(db, opt);

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 512;
  copts.cluster.spark_task_launch_s = 0.0;  // merges on the reducers
  engine::Context ctx(copts);
  ctx.set_spill_compress(false);
  simfs::SimFS fs(ctx.cluster());
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  const engine::MemoryBudget& mb = ctx.memory_budget();
  EXPECT_GT(mb.spill_blocks_written(), 0u);
  EXPECT_EQ(mb.spill_bytes_stored(), mb.spill_bytes_raw());
}

TEST(MemoryPressure, DriverMergesNeverSpill) {
  // At these widths every count merge ends on the driver: its partials
  // come back as task results, so even a 16 B shuffle buffer spills
  // nothing and the itemsets are the unconstrained run's.
  const auto db = random_db(16, 300, 0.35, 5);
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.count_mode = CountMode::kCandidateId;
  const auto reference = run_yafim(db, opt);

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 16;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto run = yafim_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  u32 aggregates = 0;
  for (const sim::StageRecord& st : ctx.report().stages()) {
    if (st.pass < 2) continue;  // Phase I keeps its reduce_by_key
    EXPECT_FALSE(st.label.ends_with(":count:reduce")) << st.label;
    aggregates += st.label.ends_with(":count:aggregate");
  }
  EXPECT_EQ(aggregates, run.passes.size() - 1);
  EXPECT_EQ(ctx.memory_budget().spill_blocks_written(), 0u);
  EXPECT_EQ(ctx.memory_budget().shuffle_buffered_bytes(), 0u);
}

TEST(MemoryPressure, MrAprioriSpillsUnderShuffleBudget) {
  const auto db = random_db(16, 250, 0.35, 42);
  MrAprioriOptions opt;
  opt.min_support = 0.2;
  engine::Context ref_ctx(small_cluster());
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = mr_apriori_mine(ref_ctx, ref_fs, db, opt);

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 256;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  const auto run = mr_apriori_mine(ctx, fs, db, opt);
  EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets));
  EXPECT_GT(ctx.memory_budget().spill_blocks_written(), 0u);
}

/// One partial's wire format in the form it ships, written independently
/// of the engine's encoder. Dense: the u64 cell count, then the cells.
/// Sparse, when strictly smaller: the u64 entry count with its top bit
/// set, the u32 ids of the nonzero cells, then their values.
std::vector<u8> serialize_partial(const std::vector<u64>& cells) {
  std::vector<u32> ids;
  std::vector<u64> values;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == 0) continue;
    ids.push_back(static_cast<u32>(i));
    values.push_back(cells[i]);
  }
  const bool sparse = 8 + 12 * ids.size() < 8 + 8 * cells.size();
  const u64 header = sparse ? (u64{1} << 63) | ids.size() : cells.size();
  std::vector<u8> out(sizeof(header));
  std::memcpy(out.data(), &header, sizeof(header));
  auto append = [&out](const void* data, size_t n) {
    const size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, data, n);
  };
  if (sparse) {
    append(ids.data(), ids.size() * sizeof(u32));
    append(values.data(), values.size() * sizeof(u64));
  } else {
    append(cells.data(), cells.size() * sizeof(u64));
  }
  return out;
}

TEST(MemoryPressure, SumArraysSpillsOneBlockPerMapTask) {
  const u32 map_tasks = 12;
  const size_t width = 300;
  // parallelize slices contiguously, so partition p holds arrays 2p and
  // 2p + 1 and its partial is their sum: about 19% of its cells are
  // nonzero, so it ships and spills sparse.
  Rng rng(77);
  std::vector<std::vector<u64>> arrays(2 * map_tasks,
                                       std::vector<u64>(width, 0));
  for (auto& a : arrays) {
    for (u64& cell : a) {
      if (rng.bernoulli(0.1)) cell = rng.below(9);
    }
  }

  engine::Context mem_ctx(small_cluster());
  const auto in_memory =
      mem_ctx.parallelize(arrays, map_tasks).sum_arrays(width, "sum");

  auto copts = small_cluster();
  copts.cluster.shuffle_buffer_bytes = 16;
  // Free task launches: the merge shuffles to the reducers instead of
  // ending on the driver, which never spills.
  copts.cluster.spark_task_launch_s = 0.0;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  const auto spilled =
      ctx.parallelize(arrays, map_tasks).sum_arrays(width, "sum");
  EXPECT_EQ(spilled, in_memory);

  const engine::MemoryBudget& mb = ctx.memory_budget();
  EXPECT_EQ(mb.spill_blocks_written(), map_tasks);
  EXPECT_EQ(mb.spill_blocks_read(), map_tasks);
  u64 raw = 0;
  u64 stored = 0;
  for (u32 p = 0; p < map_tasks; ++p) {
    std::vector<u64> partial(width);
    for (size_t i = 0; i < width; ++i) {
      partial[i] = arrays[2 * p][i] + arrays[2 * p + 1][i];
    }
    const std::vector<u8> bytes = serialize_partial(partial);
    raw += bytes.size();
    stored += yz_compress(bytes).size();
  }
  EXPECT_LT(raw, map_tasks * (8 + width * sizeof(u64)));  // sparse blocks
  EXPECT_EQ(mb.spill_bytes_raw(), raw);
  EXPECT_EQ(mb.spill_bytes_stored(), stored);
  // The action leaves no spill files behind and a balanced ledger.
  EXPECT_TRUE(fs.list("spill/").empty());
  EXPECT_EQ(mb.shuffle_buffered_bytes(), 0u);
}

TEST(MemoryPressure, SpillingGroupByKeyUnderCorruptionIsThreadCountInvariant) {
  struct Outcome {
    std::vector<std::pair<u32, std::vector<u64>>> groups;
    simfs::IntegrityStats integrity;
    u64 blocks = 0;
    u64 stored = 0;
  };
  auto run = [](u32 threads) {
    auto copts = small_cluster();
    copts.host_threads = threads;
    copts.cluster.shuffle_buffer_bytes = 64;
    engine::Context ctx(copts);
    sim::CorruptionProfile corrupt;
    corrupt.seed = 23;
    corrupt.block_p = 0.2;
    simfs::SimFS fs(ctx.cluster(), corrupt);
    ctx.set_spill_fs(&fs);
    std::vector<std::pair<u32, u64>> pairs;
    for (u64 i = 0; i < 2000; ++i) {
      pairs.emplace_back(static_cast<u32>(i % 37), i * 7);
    }
    Outcome out;
    out.groups =
        ctx.parallelize(std::move(pairs), 16).group_by_key(5).collect();
    out.integrity = fs.integrity();
    out.blocks = ctx.memory_budget().spill_blocks_written();
    out.stored = ctx.memory_budget().spill_bytes_stored();
    return out;
  };

  const Outcome one = run(1);
  EXPECT_EQ(one.blocks, 16u);
  EXPECT_GT(one.integrity.corrupt_detected, 0u) << "the profile must fire";
  EXPECT_GT(one.integrity.repaired_by_replica, 0u);
  EXPECT_EQ(one.integrity.unrecoverable, 0u);
  u64 values = 0;
  for (const auto& [key, vs] : one.groups) values += vs.size();
  EXPECT_EQ(values, 2000u);

  const Outcome four = run(4);
  EXPECT_EQ(four.groups, one.groups);
  EXPECT_EQ(four.blocks, one.blocks);
  EXPECT_EQ(four.stored, one.stored);
  EXPECT_EQ(four.integrity.blocks_verified, one.integrity.blocks_verified);
  EXPECT_EQ(four.integrity.corrupt_injected, one.integrity.corrupt_injected);
  EXPECT_EQ(four.integrity.corrupt_detected, one.integrity.corrupt_detected);
  EXPECT_EQ(four.integrity.repaired_by_replica,
            one.integrity.repaired_by_replica);
  EXPECT_EQ(four.integrity.unrecoverable, one.integrity.unrecoverable);
}

// ---- deterministic memory fault axis ------------------------------------

TEST(MemoryPressure, MemShrinkAxisDegradesMidRunDeterministically) {
  const auto db = random_db(16, 200, 0.45, 100);
  YafimOptions opt;
  opt.min_support = 0.2;
  const auto reference = run_yafim(db, opt);
  ASSERT_GE(reference.passes.size(), 3u);

  auto run_shrunk = [&](u64* fallbacks, u64* shrinks) {
    auto copts = small_cluster();
    // Generous before the fault, effectively nothing on node 1 after it:
    // passes 1..2 broadcast in full, later passes must fall back.
    copts.cluster.executor_memory_bytes = 64ull << 20;
    copts.fault.mem_shrink_pass = 3;
    copts.fault.mem_shrink_factor = 1e-9;
    copts.fault.mem_shrink_node = 1;
    engine::Context ctx(copts);
    simfs::SimFS fs(ctx.cluster());
    const auto run = yafim_mine(ctx, fs, db, opt);
    *fallbacks = ctx.memory_budget().broadcast_fallbacks();
    *shrinks = ctx.memory_budget().mem_shrinks_applied();
    return run;
  };

  u64 fallbacks_a = 0, shrinks_a = 0, fallbacks_b = 0, shrinks_b = 0;
  const auto a = run_shrunk(&fallbacks_a, &shrinks_a);
  EXPECT_TRUE(a.itemsets.same_itemsets(reference.itemsets));
  EXPECT_EQ(shrinks_a, 1u) << "the shrink applies exactly once";
  EXPECT_GT(fallbacks_a, 0u) << "post-shrink passes must fall back";

  // Same seed -> same degradation point -> same counters and output.
  const auto b = run_shrunk(&fallbacks_b, &shrinks_b);
  EXPECT_TRUE(b.itemsets.same_itemsets(a.itemsets));
  EXPECT_EQ(fallbacks_b, fallbacks_a);
  EXPECT_EQ(shrinks_b, shrinks_a);
}

// ---- checkpoint resume mid-degradation ----------------------------------

TEST(MemoryPressure, ResumeMidDegradationIsBitIdentical) {
  // Crash after pass 2; the memory fault lands at pass 3, so the resumed
  // process mines its very first live pass already under pressure. The
  // rebuilt MemoryBudget must re-apply the shrink (begin_pass consults the
  // axis on every boundary) and the partitioned passes must reproduce the
  // uninterrupted run bit for bit.
  const auto db = random_db(16, 200, 0.45, 100);
  auto shrunk_opts = [] {
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = 64ull << 20;
    copts.fault.mem_shrink_pass = 3;
    copts.fault.mem_shrink_factor = 1e-9;
    copts.fault.mem_shrink_node = 0;
    return copts;
  };

  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kAuto;

  // Uninterrupted reference under the same fault profile.
  engine::Context ref_ctx(shrunk_opts());
  simfs::SimFS ref_fs(ref_ctx.cluster());
  const auto reference = yafim_mine(ref_ctx, ref_fs, db, opt);
  ASSERT_GE(reference.passes.size(), 3u) << "need k >= 3 to land mid-fault";
  ASSERT_GT(ref_ctx.memory_budget().broadcast_fallbacks(), 0u);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_mem_degrade";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());
  opt.checkpoint = &store;
  opt.stop_after_pass = 2;
  {
    engine::Context ctx(shrunk_opts());
    simfs::SimFS fs(ctx.cluster());
    const auto partial = yafim_mine(ctx, fs, db, opt);
    EXPECT_EQ(partial.passes.back().k, 2u);
    // The crash happened before the fault's pass: no fallback yet.
    EXPECT_EQ(ctx.memory_budget().broadcast_fallbacks(), 0u);
  }
  opt.stop_after_pass = 0;
  engine::Context ctx(shrunk_opts());
  simfs::SimFS fs(ctx.cluster());
  const auto resumed = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(resumed.resumed_pass, 2u);
  EXPECT_EQ(resumed.itemsets.sorted(), reference.itemsets.sorted());
  EXPECT_GT(ctx.memory_budget().broadcast_fallbacks(), 0u);
}

TEST(MemoryPressure, BroadcastModeChangesCheckpointFingerprint) {
  // A snapshot mined under one broadcast mode must not be resumed by a run
  // configured with another (the degradation decision is part of the plan).
  const auto db = random_db(16, 200, 0.45, 100);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ck_mode_fingerprint";
  std::filesystem::remove_all(dir);
  DirCheckpointStore store(dir.string());

  YafimOptions opt;
  opt.min_support = 0.2;
  opt.checkpoint = &store;
  opt.broadcast_mode = BroadcastMode::kFull;
  {
    engine::Context ctx(small_cluster());
    simfs::SimFS fs(ctx.cluster());
    (void)yafim_mine(ctx, fs, db, opt);
  }
  opt.broadcast_mode = BroadcastMode::kPartitioned;
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const auto rerun = yafim_mine(ctx, fs, db, opt);
  EXPECT_EQ(rerun.resumed_pass, 0u)
      << "foreign-mode snapshots must not match";
}

// ---- linter: YL002 error vs note ----------------------------------------

TEST(MemoryPressure, FallbackDowngradesYl002ToNote) {
  const TransactionDB& db = pass3_db();
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 1024;
  copts.lint.enabled = true;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kAuto;
  (void)yafim_mine(ctx, fs, db, opt);
  ctx.linter().finalize();

  bool saw_note = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL002") continue;
    EXPECT_EQ(diag.severity, engine::LintSeverity::kNote) << diag.message;
    saw_note = true;
  }
  EXPECT_TRUE(saw_note) << "fallback must still be visible as a YL002 note";
  EXPECT_FALSE(ctx.linter().any_at_least(engine::LintSeverity::kWarn));
}

TEST(MemoryPressure, Yl002NoteSaysWhyTheStoreEngaged) {
  // An over-budget payload "exceeds" the executor memory and the store is
  // "engaged"; a payload that fits was "forced" into the store by the
  // partitioned broadcast mode.
  struct Case {
    const char* name;
    u64 executor_memory;  ///< 0 keeps the cluster's 24 GiB
    BroadcastMode bmode;
    const char* wording;
  };
  const Case cases[] = {
      {"over budget", 512, BroadcastMode::kAuto,
       " exceeds executor memory of 512 B; partitioned candidate broadcast "
       "engaged -- the candidates are split into first-item ranges"},
      {"forced", 0, BroadcastMode::kPartitioned,
       " fits executor memory of 24 GiB; partitioned candidate broadcast "
       "forced by the partitioned broadcast mode -- the candidates are "
       "split into first-item ranges"}};
  for (const Case& c : cases) {
    for (const bool mapreduce : {false, true}) {
      const std::string where =
          std::string(c.name) + (mapreduce ? " mrapriori" : " yafim");
      auto copts = small_cluster();
      if (c.executor_memory) {
        copts.cluster.executor_memory_bytes = c.executor_memory;
      }
      copts.lint.enabled = true;
      engine::Context ctx(copts);
      simfs::SimFS fs(ctx.cluster());
      if (mapreduce) {
        MrAprioriOptions opt;
        opt.min_support = 0.2;
        opt.broadcast_mode = c.bmode;
        (void)mr_apriori_mine(ctx, fs, pass3_db(), opt);
      } else {
        YafimOptions opt;
        opt.min_support = 0.2;
        opt.broadcast_mode = c.bmode;
        (void)yafim_mine(ctx, fs, pass3_db(), opt);
      }
      ctx.linter().finalize();
      u64 notes = 0;
      for (const auto& diag : ctx.linter().diagnostics()) {
        if (diag.rule != "YL002") continue;
        ++notes;
        EXPECT_EQ(diag.severity, engine::LintSeverity::kNote) << where;
        EXPECT_EQ(diag.message.find("broadcast payload of "), 0u) << where;
        EXPECT_NE(diag.message.find(c.wording), std::string::npos)
            << where << ": " << diag.message;
      }
      EXPECT_EQ(notes, ctx.memory_budget().broadcast_fallbacks()) << where;
      EXPECT_GT(notes, 0u) << where;
    }
  }
}

TEST(MemoryPressure, FullModeKeepsYl002Error) {
  // Under kFull the dense mode ships pass 3 as its trie, 952 B here: the
  // executor holds less.
  const TransactionDB& db = pass3_db();
  auto copts = small_cluster();
  copts.cluster.executor_memory_bytes = 512;
  copts.lint.enabled = true;
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  YafimOptions opt;
  opt.min_support = 0.2;
  opt.broadcast_mode = BroadcastMode::kFull;
  (void)yafim_mine(ctx, fs, db, opt);
  ctx.linter().finalize();

  bool saw_error = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule == "YL002" &&
        diag.severity == engine::LintSeverity::kError) {
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(ctx.linter().any_at_least(engine::LintSeverity::kWarn));
}

TEST(MemoryPressure, DecisionWeighsTheBytesThatShip) {
  // Every batch from pass 3 on ships as its trie in the dense mode and as
  // its hash trees in the faithful one. An executor that holds each trie,
  // but none of those trees, next to what it caches counts every pass
  // whole in the dense mode: no fallback, no shard stage, no YL002.
  const TransactionDB& db = pass3_db();
  YafimOptions faithful;
  faithful.min_support = 0.2;
  faithful.count_mode = CountMode::kItemsetKey;
  const MiningRun reference = run_yafim(db, faithful);
  u64 largest_trie = 0;
  u64 smallest_trees = ~u64{0};
  for (u32 k = 3; !reference.itemsets.level(k - 1).empty(); ++k) {
    std::vector<Itemset> frequent;
    for (const auto& [itemset, support] : reference.itemsets.level(k - 1)) {
      frequent.push_back(itemset);
    }
    const CandidateBatch batch(
        candidate_levels(to_sorted_rows(frequent), k, PassCombining{}));
    if (batch.empty()) break;
    largest_trie = std::max(largest_trie,
                            DenseKernel(batch.levels()).payload_bytes());
    const std::span<const Item> rows = batch.levels().front().items();
    smallest_trees = std::min(
        smallest_trees,
        HashTree(ItemsetRows{k, {rows.begin(), rows.end()}}, 0, 16)
            .serialized_bytes());
  }
  ASSERT_GT(largest_trie, 0u) << "no batch from pass 3 on";
  ASSERT_LT(largest_trie, smallest_trees);

  for (const bool mapreduce : {false, true}) {
    // yafim's cached transactions take their share of every executor.
    const u64 cached_share =
        mapreduce ? 0 : db.serialize().size() / small_cluster().cluster.nodes;
    auto mine = [&](CountMode mode, BroadcastMode bmode,
                    engine::Context& ctx) {
      simfs::SimFS fs(ctx.cluster());
      if (mapreduce) {
        MrAprioriOptions opt;
        opt.min_support = 0.2;
        opt.count_mode = mode;
        opt.broadcast_mode = bmode;
        return mr_apriori_mine(ctx, fs, db, opt);
      }
      YafimOptions opt = faithful;
      opt.count_mode = mode;
      opt.broadcast_mode = bmode;
      return yafim_mine(ctx, fs, db, opt);
    };
    const std::string where = mapreduce ? "mrapriori" : "yafim";
    auto copts = small_cluster();
    copts.cluster.executor_memory_bytes = largest_trie + cached_share;
    copts.lint.enabled = true;

    // The trees do not fit: the faithful mode shards.
    engine::Context faithful_ctx(copts);
    (void)mine(CountMode::kItemsetKey, BroadcastMode::kAuto, faithful_ctx);
    EXPECT_GT(faithful_ctx.memory_budget().broadcast_fallbacks(), 0u)
        << where;

    engine::Context ctx(copts);
    const MiningRun run =
        mine(CountMode::kCandidateId, BroadcastMode::kAuto, ctx);
    EXPECT_TRUE(run.itemsets.same_itemsets(reference.itemsets)) << where;
    EXPECT_EQ(ctx.memory_budget().broadcast_fallbacks(), 0u) << where;
    for (const sim::StageRecord& st : ctx.report().stages()) {
      EXPECT_EQ(st.label.find(":shard"), std::string::npos)
          << where << ": " << st.label;
    }

    engine::Context full_ctx(copts);
    (void)mine(CountMode::kCandidateId, BroadcastMode::kFull, full_ctx);
    full_ctx.linter().finalize();
    for (const auto& diag : full_ctx.linter().diagnostics()) {
      EXPECT_NE(diag.rule, "YL002") << where << ": " << diag.message;
    }
  }
}

// ---- broadcast pricing under blacklisting -------------------------------

TEST(BroadcastPricing, LiveFractionRoundsUpNotDown) {
  // 4 nodes, 1 blacklisted -> 3/4 of the payload is shipped. Truncating
  // division used to undercharge every payload whose bytes don't divide the
  // node count -- to zero for payloads under `nodes` bytes.
  auto opts = small_cluster();
  opts.cluster = sim::ClusterConfig::with_nodes(4);
  opts.fault.blacklist_after = 1;
  engine::Context ctx(opts);
  ctx.fault_injector().note_task_failure(0);
  ASSERT_EQ(ctx.fault_injector().live_nodes(), 3u);

  auto priced = [&](u64 payload_bytes) {
    const u64 before = ctx.report().total_broadcast_bytes();
    auto b = ctx.broadcast(int{7}, payload_bytes, "pricing-probe");
    (void)b;
    // Pending broadcast bytes attach to the next recorded stage.
    (void)ctx.parallelize(std::vector<int>{1, 2, 3}, 2).collect();
    return ctx.report().total_broadcast_bytes() - before;
  };

  EXPECT_EQ(priced(1), 1u);     // was 0 with truncation
  EXPECT_EQ(priced(5), 4u);     // ceil(5 * 3 / 4), was 3
  EXPECT_EQ(priced(100), 75u);  // exact multiples are unchanged
}

TEST(BroadcastPricing, HealthyClusterChargesFullPayload) {
  auto opts = small_cluster();
  opts.cluster = sim::ClusterConfig::with_nodes(4);
  engine::Context ctx(opts);
  auto b = ctx.broadcast(int{7}, 999, "pricing-probe");
  (void)b;
  (void)ctx.parallelize(std::vector<int>{1, 2, 3}, 2).collect();
  EXPECT_EQ(ctx.report().total_broadcast_bytes(), 999u);
}

}  // namespace
}  // namespace yafim::fim
