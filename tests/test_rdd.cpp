// Unit + property tests for the minispark RDD engine: transformations,
// actions, partitioning, caching, shuffles, broadcast accounting and stage
// recording.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <string>

#include "engine/broadcast.h"
#include "engine/rdd.h"
#include "fim/itemset.h"
#include "simfs/simfs.h"
#include "util/rng.h"

namespace yafim::engine {
namespace {

std::vector<int> iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

Context::Options small_cluster() {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

TEST(Rdd, ParallelizeAndCollectPreservesOrder) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(1000), 7);
  EXPECT_EQ(rdd.num_partitions(), 7u);
  EXPECT_EQ(rdd.collect(), iota(1000));
}

TEST(Rdd, ParallelizeEmpty) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(std::vector<int>{});
  EXPECT_EQ(rdd.num_partitions(), 1u);
  EXPECT_TRUE(rdd.collect().empty());
  EXPECT_EQ(rdd.count(), 0u);
}

TEST(Rdd, ParallelizeFewerElementsThanPartitions) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(std::vector<int>{1, 2, 3}, 16);
  EXPECT_LE(rdd.num_partitions(), 3u);
  EXPECT_EQ(rdd.count(), 3u);
}

TEST(Rdd, MapFilterFlatMapChain) {
  Context ctx(small_cluster());
  auto result = ctx.parallelize(iota(100), 5)
                    .map([](const int& x) { return x * 2; })
                    .filter([](const int& x) { return x % 4 == 0; })
                    .flat_map([](const int& x) {
                      return std::vector<int>{x, x + 1};
                    })
                    .collect();
  // 50 even-doubled values, each expanded to two.
  EXPECT_EQ(result.size(), 100u);
  EXPECT_EQ(result[0], 0);
  EXPECT_EQ(result[1], 1);
  EXPECT_EQ(result[2], 4);
}

TEST(Rdd, MapCanChangeType) {
  Context ctx(small_cluster());
  auto strs = ctx.parallelize(iota(5), 2)
                  .map([](const int& x) { return std::to_string(x); })
                  .collect();
  EXPECT_EQ(strs, (std::vector<std::string>{"0", "1", "2", "3", "4"}));
}

TEST(Rdd, MapPartitions) {
  Context ctx(small_cluster());
  auto sums = ctx.parallelize(iota(100), 4)
                  .map_partitions([](const std::vector<int>& part) {
                    return std::vector<u64>{
                        std::accumulate(part.begin(), part.end(), u64{0})};
                  })
                  .collect();
  EXPECT_EQ(sums.size(), 4u);
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), u64{0}), 4950u);
}

TEST(Rdd, CountAndReduce) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(1234), 9);
  EXPECT_EQ(rdd.count(), 1234u);
  EXPECT_EQ(rdd.reduce([](int a, int b) { return a + b; }),
            1234 * 1233 / 2);
}

TEST(Rdd, ReduceSinglePartitionWithEmptyPartitions) {
  Context ctx(small_cluster());
  // 3 elements over up-to-16 partitions: several partitions are empty.
  auto rdd = ctx.parallelize(std::vector<int>{5, 6, 7}, 3);
  EXPECT_EQ(rdd.reduce([](int a, int b) { return a + b; }), 18);
}

TEST(Rdd, ReduceOnEmptyRddThrows) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(std::vector<int>{});
  try {
    rdd.reduce([](int a, int b) { return a + b; });
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.kind(), EngineErrorKind::kEmptyReduce);
    EXPECT_NE(std::string(e.what()).find("empty RDD"), std::string::npos);
  }
}

TEST(Rdd, ReduceByKeyMatchesSerialAggregation) {
  Context ctx(small_cluster());
  Rng rng(77);
  std::vector<std::pair<int, u64>> pairs;
  std::unordered_map<int, u64> expected;
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(rng.below(50));
    const u64 v = rng.below(10);
    pairs.emplace_back(k, v);
    expected[k] += v;
  }
  auto result = ctx.parallelize(std::move(pairs), 13)
                    .reduce_by_key([](u64 a, u64 b) { return a + b; })
                    .collect_as_map();
  EXPECT_EQ(result.size(), expected.size());
  for (const auto& [k, v] : expected) EXPECT_EQ(result.at(k), v);
}

TEST(Rdd, ReduceByKeyCustomPartitionCount) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{1, 1}, {2, 1}, {1, 1}};
  auto reduced = ctx.parallelize(std::move(pairs), 2)
                     .reduce_by_key([](int a, int b) { return a + b; },
                                    /*out_partitions=*/5);
  EXPECT_EQ(reduced.num_partitions(), 5u);
  auto m = reduced.collect_as_map();
  EXPECT_EQ(m.at(1), 2);
  EXPECT_EQ(m.at(2), 1);
}

TEST(Rdd, ReduceByKeyRecordsShuffleBytes) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, u64>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(i, 1);
  ctx.parallelize(std::move(pairs), 4)
      .reduce_by_key([](u64 a, u64 b) { return a + b; })
      .collect();
  u64 shuffle = 0;
  for (const auto& s : ctx.report().stages()) shuffle += s.shuffle_bytes;
  // 1000 distinct keys of (int, u64) = 12 bytes each.
  EXPECT_EQ(shuffle, 12000u);
}

TEST(Rdd, CollectAsMapRejectsDuplicates) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{1, 10}, {1, 20}};
  auto rdd = ctx.parallelize(std::move(pairs), 1);
  try {
    rdd.collect_as_map();
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.kind(), EngineErrorKind::kDuplicateKey);
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
  }
}

TEST(Rdd, PersistCachesAcrossActions) {
  // Exact compute counts: ambient cache corruption would drop cached
  // partitions and recompute them, so opt out of the env fault profile.
  Context::Options opts = small_cluster();
  opts.fault = FaultProfile{};
  Context ctx(opts);
  std::atomic<int> compute_calls{0};
  auto rdd = ctx.parallelize(iota(100), 4).map([&](const int& x) {
    compute_calls.fetch_add(1);
    return x + 1;
  });
  rdd.persist();
  EXPECT_TRUE(rdd.persisted());
  rdd.collect();
  EXPECT_EQ(compute_calls.load(), 100);
  rdd.collect();
  rdd.count();
  EXPECT_EQ(compute_calls.load(), 100) << "cached partitions must be reused";
}

TEST(Rdd, UnpersietedRecomputesEachAction) {
  Context ctx(small_cluster());
  std::atomic<int> compute_calls{0};
  auto rdd = ctx.parallelize(iota(10), 2).map([&](const int& x) {
    compute_calls.fetch_add(1);
    return x;
  });
  rdd.collect();
  rdd.collect();
  EXPECT_EQ(compute_calls.load(), 20);
}

TEST(Rdd, StageRecordsCarryWorkAndPassTag) {
  // Exact task/work counts: ambient failure and straggler injection would
  // add retried attempts and speculative copies, so opt out of it.
  Context::Options opts = small_cluster();
  opts.fault = FaultProfile{};
  Context ctx(opts);
  ctx.set_pass(3);
  ctx.parallelize(iota(100), 4).map([](const int& x) { return x; }).collect();
  ASSERT_FALSE(ctx.report().empty());
  const auto& stage = ctx.report().stages().back();
  EXPECT_EQ(stage.pass, 3u);
  EXPECT_EQ(stage.tasks.size(), 4u);
  EXPECT_EQ(ctx.report().total_work(), 100u);  // 1 unit per mapped element
}

TEST(Rdd, BroadcastValueAccessible) {
  Context ctx(small_cluster());
  auto b = ctx.broadcast(std::vector<int>{1, 2, 3}, 100);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ((*b)[2], 3);
  EXPECT_EQ(b.value()[0], 1);
}

TEST(Rdd, BroadcastBytesAttachToNextStage) {
  Context ctx(small_cluster());
  auto b = ctx.broadcast(42, 12345);
  ctx.parallelize(iota(10), 2)
      .map([b](const int& x) { return x + *b; })
      .collect();
  const auto& stage = ctx.report().stages().back();
  EXPECT_EQ(stage.broadcast_bytes, 12345u);
  EXPECT_EQ(stage.naive_ship_bytes, 0u);
  // Only the first stage after the broadcast pays.
  ctx.parallelize(iota(10), 2).collect();
  EXPECT_EQ(ctx.report().stages().back().broadcast_bytes, 0u);
}

TEST(Rdd, NaiveShipModeChargesPerTask) {
  Context::Options opts = small_cluster();
  opts.share_mode = ShareMode::kNaiveShip;
  Context ctx(opts);
  auto b = ctx.broadcast(1, 1000);
  ctx.parallelize(iota(10), 2).map([b](const int& x) { return x; }).collect();
  const auto& stage = ctx.report().stages().back();
  EXPECT_EQ(stage.naive_ship_bytes, 1000u);
  EXPECT_EQ(stage.broadcast_bytes, 0u);
}

TEST(Rdd, ByteSizeCustomization) {
  EXPECT_EQ(byte_size(int{1}), 4u);
  EXPECT_EQ(byte_size(std::string("abc")), 11u);
  EXPECT_EQ(byte_size(std::vector<u32>{1, 2}), 16u);
  EXPECT_EQ(byte_size(std::make_pair(1, std::string("x"))), 13u);
  const std::vector<std::string> nested{"a", "bb"};
  EXPECT_EQ(byte_size(nested), 8u + 9u + 10u);
}

// --- fim::Singleton on the wire: Itemset{item}'s bytes -------------------

fim::Item item_of(fim::Singleton key) { return key.item; }
fim::Item item_of(const fim::Itemset& key) { return key.at(0); }

/// Count `items` keyed by `Key`, through reduce_by_key and through
/// group_by_key, on a cluster whose 64 B shuffle buffer makes the grouping
/// spill and with DetSan replaying every task; returns both outputs in
/// collect order and everything priced.
template <typename Key, typename Hash>
std::string spilled_count(const std::vector<fim::Item>& items) {
  Context::Options opts = small_cluster();
  opts.fault = FaultProfile{};
  opts.cluster.shuffle_buffer_bytes = 64;
  opts.detsan.enabled = true;
  opts.detsan.sample_rate = 1.0;
  Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  const auto pairs = ctx.parallelize(items, 6).map(
      [](fim::Item i) { return std::pair<Key, u64>(Key{i}, 1); });
  std::ostringstream out;
  for (const auto& [key, n] :
       pairs.reduce_by_key([](u64 a, u64 b) { return a + b; }, 4, Hash{},
                           "count")
           .collect()) {
    out << item_of(key) << ':' << n << ' ';
  }
  out << '\n';
  for (const auto& [key, ones] : pairs.group_by_key(4, Hash{}, "group")
                                     .collect()) {
    out << item_of(key) << ':' << ones.size() << ' ';
  }
  out << '\n';
  for (const sim::StageRecord& st : ctx.report().stages()) {
    out << st.label << ' ' << static_cast<int>(st.kind) << ' '
        << st.shuffle_bytes << ' ' << st.dfs_read_bytes << ' '
        << st.dfs_write_bytes << " work";
    for (const sim::TaskRecord& task : st.tasks) out << ' ' << task.work;
    out << '\n';
  }
  const double total = ctx.report().total_seconds(ctx.cost_model());
  u64 bits = 0;
  std::memcpy(&bits, &total, sizeof(bits));
  const MemoryBudget& ledger = ctx.memory_budget();
  out << "total_seconds " << bits << " spill "
      << ledger.spill_blocks_written() << ' ' << ledger.spill_bytes_raw()
      << ' ' << ledger.spill_bytes_stored() << " detsan "
      << ctx.detsan().tasks_replayed() << ' ' << ctx.detsan().divergences();
  return out.str();
}

TEST(RddWire, SingletonKeyedShufflePricesAsItemsetKeyed) {
  std::vector<fim::Item> items;
  Rng rng(9);
  for (int i = 0; i < 3000; ++i) {
    items.push_back(static_cast<fim::Item>(rng.below(97)));
  }
  items.push_back(0xFFFFFFFFu);
  const std::string by_value =
      spilled_count<fim::Singleton, fim::SingletonHash>(items);
  EXPECT_NE(by_value.find("group:spill "), std::string::npos) << by_value;
  EXPECT_EQ(by_value, (spilled_count<fim::Itemset, fim::ItemsetHash>(items)));
}

/// Property sweep: reduce_by_key equals serial aggregation for many
/// partition-count / key-cardinality combinations.
class ReduceByKeySweep
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(ReduceByKeySweep, MatchesSerial) {
  const auto [partitions, num_keys] = GetParam();
  Context ctx(small_cluster());
  Rng rng(1000 + partitions * 31 + num_keys);
  std::vector<std::pair<u32, u64>> pairs;
  std::unordered_map<u32, u64> expected;
  for (int i = 0; i < 2000; ++i) {
    const u32 k = static_cast<u32>(rng.below(num_keys));
    pairs.emplace_back(k, 1);
    expected[k] += 1;
  }
  auto actual = ctx.parallelize(std::move(pairs), partitions)
                    .reduce_by_key([](u64 a, u64 b) { return a + b; })
                    .collect_as_map();
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [k, v] : expected) EXPECT_EQ(actual.at(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReduceByKeySweep,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 32u),
                       ::testing::Values(1u, 10u, 500u)));

}  // namespace
}  // namespace yafim::engine
