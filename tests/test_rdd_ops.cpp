// Tests for the extended RDD operator set: group_by_key, join, sort_by_key,
// distinct, take/first, count_by_value; plus the pricing pins every
// operator must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "engine/rdd.h"
#include "sim/corruption.h"
#include "util/rng.h"

namespace yafim::engine {
namespace {

Context::Options small_cluster() {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

std::vector<int> iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(GroupByKey, GathersAllValues) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 300; ++i) pairs.emplace_back(i % 5, i);
  auto grouped = ctx.parallelize(std::move(pairs), 7).group_by_key();
  auto result = grouped.collect();
  ASSERT_EQ(result.size(), 5u);
  for (auto& [k, values] : result) {
    EXPECT_EQ(values.size(), 60u) << "key " << k;
    for (int v : values) EXPECT_EQ(v % 5, k);
  }
}

TEST(GroupByKey, PreservesDuplicateValues) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{1, 7}, {1, 7}, {1, 8}};
  auto result =
      ctx.parallelize(std::move(pairs), 2).group_by_key().collect();
  ASSERT_EQ(result.size(), 1u);
  auto values = result[0].second;
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{7, 7, 8}));
}

TEST(GroupByKey, ShuffleCostExceedsReduceByKey) {
  // groupByKey cannot combine map-side, so it moves every record.
  std::vector<std::pair<int, u64>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(i % 3, 1);

  Context ctx1(small_cluster());
  ctx1.parallelize(std::vector<std::pair<int, u64>>(pairs), 4)
      .group_by_key()
      .collect();
  Context ctx2(small_cluster());
  ctx2.parallelize(std::vector<std::pair<int, u64>>(pairs), 4)
      .reduce_by_key([](u64 a, u64 b) { return a + b; })
      .collect();
  EXPECT_GT(ctx1.report().total_shuffle_bytes(),
            ctx2.report().total_shuffle_bytes());
}

TEST(Join, InnerJoinSemantics) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, std::string>> users{
      {1, "ada"}, {2, "bob"}, {3, "eve"}};
  std::vector<std::pair<int, int>> scores{{1, 10}, {1, 20}, {3, 30}, {4, 99}};
  auto joined = ctx.parallelize(std::move(users), 2)
                    .join(ctx.parallelize(std::move(scores), 3));
  auto result = joined.collect();
  std::sort(result.begin(), result.end());
  ASSERT_EQ(result.size(), 3u);  // key 2 has no score; key 4 has no user
  EXPECT_EQ(result[0].first, 1);
  EXPECT_EQ(result[0].second.first, "ada");
  EXPECT_EQ(result[0].second.second, 10);
  EXPECT_EQ(result[1].second.second, 20);
  EXPECT_EQ(result[2].first, 3);
  EXPECT_EQ(result[2].second.second, 30);
}

TEST(Join, ManyToManyProducesCrossProduct) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> left{{7, 1}, {7, 2}};
  std::vector<std::pair<int, int>> right{{7, 10}, {7, 20}, {7, 30}};
  auto result = ctx.parallelize(std::move(left), 1)
                    .join(ctx.parallelize(std::move(right), 1))
                    .collect();
  EXPECT_EQ(result.size(), 6u);  // 2 x 3
}

TEST(Join, DisjointKeysYieldEmpty) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> left{{1, 1}};
  std::vector<std::pair<int, int>> right{{2, 2}};
  EXPECT_EQ(ctx.parallelize(std::move(left), 1)
                .join(ctx.parallelize(std::move(right), 1))
                .count(),
            0u);
}

TEST(SortByKey, FullyOrdersCollectOutput) {
  Context ctx(small_cluster());
  Rng rng(9);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back(static_cast<int>(rng.below(500)), i);
  }
  auto sorted = ctx.parallelize(std::move(pairs), 8).sort_by_key().collect();
  ASSERT_EQ(sorted.size(), 2000u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].first, sorted[i].first);
  }
}

TEST(SortByKey, StableWithinEqualKeys) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, int>> pairs{{5, 0}, {5, 1}, {5, 2}, {5, 3}};
  auto sorted = ctx.parallelize(std::move(pairs), 1).sort_by_key().collect();
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].second, static_cast<int>(i));
  }
}

TEST(SortByKey, EmptyAndSingle) {
  Context ctx(small_cluster());
  EXPECT_TRUE(ctx.parallelize(std::vector<std::pair<int, int>>{})
                  .sort_by_key()
                  .collect()
                  .empty());
  auto one = ctx.parallelize(std::vector<std::pair<int, int>>{{3, 4}})
                 .sort_by_key()
                 .collect();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 3);
}

TEST(Distinct, RemovesDuplicates) {
  Context ctx(small_cluster());
  std::vector<int> data;
  for (int i = 0; i < 500; ++i) data.push_back(i % 37);
  auto unique = ctx.parallelize(std::move(data), 9).distinct().collect();
  std::sort(unique.begin(), unique.end());
  ASSERT_EQ(unique.size(), 37u);
  for (int i = 0; i < 37; ++i) EXPECT_EQ(unique[i], i);
}

TEST(Distinct, AlreadyUniqueUnchangedAsSet) {
  Context ctx(small_cluster());
  auto unique = ctx.parallelize(iota(100), 4).distinct().collect();
  EXPECT_EQ(unique.size(), 100u);
}

TEST(Take, ReturnsFirstElementsInOrder) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(100), 10);
  EXPECT_EQ(rdd.take(5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rdd.take(0), std::vector<int>{});
  EXPECT_EQ(rdd.take(1000).size(), 100u);  // more than available
}

TEST(Take, ShortCircuitsLaterPartitions) {
  Context ctx(small_cluster());
  std::atomic<int> computed{0};
  auto rdd = ctx.parallelize(iota(100), 10).map([&](const int& x) {
    computed.fetch_add(1);
    return x;
  });
  (void)rdd.take(5);
  EXPECT_EQ(computed.load(), 10);  // only partition 0 (10 elements)
}

TEST(First, ReturnsHeadOrThrows) {
  Context ctx(small_cluster());
  EXPECT_EQ(ctx.parallelize(iota(10), 3).first(), 0);
  auto empty = ctx.parallelize(std::vector<int>{});
  try {
    (void)empty.first();
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.kind(), EngineErrorKind::kEmptyFirst);
    EXPECT_NE(std::string(e.what()).find("empty RDD"), std::string::npos);
  }
}

TEST(CountByValue, Histogram) {
  Context ctx(small_cluster());
  std::vector<int> data{1, 2, 2, 3, 3, 3};
  auto hist = ctx.parallelize(std::move(data), 3).count_by_value();
  EXPECT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist.at(1), 1u);
  EXPECT_EQ(hist.at(2), 2u);
  EXPECT_EQ(hist.at(3), 3u);
}

TEST(Coalesce, MergesPartitionsPreservingOrder) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(100), 10).coalesce(3);
  EXPECT_EQ(rdd.num_partitions(), 3u);
  EXPECT_EQ(rdd.collect(), iota(100));
}

TEST(Coalesce, ClampsToExistingPartitionCount) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(10), 2).coalesce(50);
  EXPECT_EQ(rdd.num_partitions(), 2u);
  EXPECT_EQ(rdd.count(), 10u);
}

TEST(Coalesce, DownToOne) {
  Context ctx(small_cluster());
  auto rdd = ctx.parallelize(iota(64), 16).coalesce(1);
  EXPECT_EQ(rdd.num_partitions(), 1u);
  EXPECT_EQ(rdd.collect(), iota(64));
}

TEST(ZipWithIndex, GlobalIndicesInPartitionOrder) {
  Context ctx(small_cluster());
  auto zipped = ctx.parallelize(iota(100), 7)
                    .map([](const int& x) { return x * 2; })
                    .zip_with_index()
                    .collect();
  ASSERT_EQ(zipped.size(), 100u);
  for (u64 i = 0; i < zipped.size(); ++i) {
    EXPECT_EQ(zipped[i].first, static_cast<int>(2 * i));
    EXPECT_EQ(zipped[i].second, i);
  }
}

TEST(ZipWithIndex, EmptyRdd) {
  Context ctx(small_cluster());
  EXPECT_TRUE(
      ctx.parallelize(std::vector<int>{}).zip_with_index().collect().empty());
}

TEST(AggregateByKey, ComputesPerKeyAverageParts) {
  Context ctx(small_cluster());
  std::vector<std::pair<int, double>> pairs;
  for (int i = 0; i < 100; ++i) pairs.emplace_back(i % 4, i);
  // Accumulate (sum, count) pairs to compute averages downstream.
  using Acc = std::pair<double, u64>;
  auto result =
      ctx.parallelize(std::move(pairs), 6)
          .aggregate_by_key(
              Acc{0.0, 0},
              [](Acc acc, const double& v) {
                return Acc{acc.first + v, acc.second + 1};
              },
              [](Acc a, const Acc& b) {
                return Acc{a.first + b.first, a.second + b.second};
              })
          .collect_as_map();
  ASSERT_EQ(result.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.at(k).second, 25u);
    // Sum of k, k+4, ..., k+96.
    EXPECT_DOUBLE_EQ(result.at(k).first, 25.0 * k + 4.0 * (24 * 25 / 2));
  }
}

TEST(AggregateByKey, EquivalentToReduceByKeyForSameTypes) {
  Context ctx(small_cluster());
  Rng rng(4);
  std::vector<std::pair<u32, u64>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(static_cast<u32>(rng.below(20)), rng.below(5));
  }
  auto a = ctx.parallelize(std::vector<std::pair<u32, u64>>(pairs), 5)
               .reduce_by_key([](u64 x, u64 y) { return x + y; })
               .collect_as_map();
  auto b = ctx.parallelize(std::move(pairs), 5)
               .aggregate_by_key(
                   u64{0}, [](u64 acc, const u64& v) { return acc + v; },
                   [](u64 x, const u64& y) { return x + y; })
               .collect_as_map();
  EXPECT_EQ(a, b);
}

TEST(TextFile, SplitsLinesAndChargesLoad) {
  Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const std::string text = "alpha beta\ngamma\n\ndelta";
  fs.write("data/lines.txt", std::vector<u8>(text.begin(), text.end()));

  auto lines = ctx.text_file(fs, "data/lines.txt");
  EXPECT_EQ(lines.collect(),
            (std::vector<std::string>{"alpha beta", "gamma", "delta"}));

  bool found = false;
  for (const auto& stage : ctx.report().stages()) {
    if (stage.label.rfind("textFile:", 0) == 0) {
      EXPECT_EQ(stage.dfs_read_bytes, text.size());
      EXPECT_FALSE(stage.tasks.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TextFile, WordCountPipeline) {
  Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  const std::string text = "a b a\nb c\na\n";
  fs.write("wc.txt", std::vector<u8>(text.begin(), text.end()));

  auto counts =
      ctx.text_file(fs, "wc.txt")
          .flat_map([](const std::string& line) {
            std::vector<std::string> words;
            size_t start = 0;
            for (size_t i = 0; i <= line.size(); ++i) {
              if (i == line.size() || line[i] == ' ') {
                if (i > start) words.push_back(line.substr(start, i - start));
                start = i + 1;
              }
            }
            return words;
          })
          .map([](const std::string& w) {
            return std::pair<std::string, u64>(w, 1);
          })
          .reduce_by_key([](u64 a, u64 b) { return a + b; })
          .collect_as_map();
  EXPECT_EQ(counts.at("a"), 3u);
  EXPECT_EQ(counts.at("b"), 2u);
  EXPECT_EQ(counts.at("c"), 1u);
}

/// Property sweep: join against a serial reference across partitionings.
class JoinSweep : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(JoinSweep, MatchesSerialJoin) {
  const auto [left_parts, right_parts] = GetParam();
  Context ctx(small_cluster());
  Rng rng(left_parts * 31 + right_parts);
  std::vector<std::pair<u32, u32>> left, right;
  for (int i = 0; i < 400; ++i) {
    left.emplace_back(static_cast<u32>(rng.below(40)), static_cast<u32>(i));
    right.emplace_back(static_cast<u32>(rng.below(40)),
                       static_cast<u32>(i + 1000));
  }

  std::vector<std::pair<u32, std::pair<u32, u32>>> expected;
  for (const auto& [lk, lv] : left) {
    for (const auto& [rk, rv] : right) {
      if (lk == rk) expected.emplace_back(lk, std::make_pair(lv, rv));
    }
  }
  std::sort(expected.begin(), expected.end());

  auto got = ctx.parallelize(std::move(left), left_parts)
                 .join(ctx.parallelize(std::move(right), right_parts))
                 .collect();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinSweep,
                         ::testing::Combine(::testing::Values(1u, 3u, 8u),
                                            ::testing::Values(1u, 5u)));

// --- pricing pins ------------------------------------------------------
//
// One fixed plan through every operator. The cost model prices exactly
// what the stages record -- label, kind, task count, summed task work,
// shuffle and DFS bytes -- and DetSan's replays are priced as task work,
// so an operator may change how it computes but never these numbers.

/// "label kind tasks work shuffle dfs" for every recorded stage.
std::vector<std::string> stage_rows(const sim::SimReport& report) {
  std::vector<std::string> rows;
  for (const sim::StageRecord& stage : report.stages()) {
    u64 work = 0;
    for (const sim::TaskRecord& task : stage.tasks) work += task.work;
    std::ostringstream row;
    row << stage.label << ' ' << static_cast<int>(stage.kind) << ' '
        << stage.tasks.size() << ' ' << work << ' ' << stage.shuffle_bytes
        << ' ' << stage.dfs_read_bytes + stage.dfs_write_bytes;
    rows.push_back(row.str());
  }
  return rows;
}

struct PinnedRun {
  std::vector<std::string> rows;
  u64 tasks_replayed = 0;
};

PinnedRun run_pinned_plan(bool detsan) {
  Context::Options opts = small_cluster();
  opts.fault = FaultProfile{};
  // One byte of shuffle buffer: a shuffle spills whenever a spill
  // filesystem is attached.
  opts.cluster.shuffle_buffer_bytes = 1;
  opts.detsan.enabled = detsan;
  opts.detsan.sample_rate = 1.0;
  Context ctx(opts);
  simfs::SimFS fs(ctx.cluster(), sim::CorruptionProfile{});

  using KV = std::pair<u32, u64>;
  auto nums = ctx.parallelize(iota(90), 6);
  auto tripled = nums.map([](const int& x) { return x * 3; });
  auto fanned = tripled.flat_map([](const int& x) {
    return std::vector<int>(static_cast<size_t>(x % 4), x);
  });
  auto even = fanned.filter([](const int& x) { return x % 2 == 0; });
  auto prefix = even.map_partitions([](const std::vector<int>& part) {
    std::vector<int> out;
    int acc = 0;
    for (int x : part) out.push_back(acc += x);
    return out;
  });
  auto mixed = prefix.sample(0.5, 7).union_with(even).coalesce(4);
  auto pairs = mixed.zip_with_index("zip").map(
      [](const std::pair<int, u64>& p) {
        return KV(static_cast<u32>(p.first % 7), p.second);
      });
  const std::hash<u32> hash;

  (void)pairs.reduce_by_key([](u64 a, u64 b) { return a + b; }, 3, hash, "rbk")
      .collect("rbk:collect");
  (void)pairs
      .aggregate_by_key(
          u64{1}, [](u64 acc, const u64& v) { return acc + v; },
          [](u64 a, const u64& b) { return a + b; }, 3, hash, "abk")
      .collect("abk:collect");
  (void)pairs.group_by_key(3, hash, "gbk").collect("gbk:collect");
  ctx.set_spill_fs(&fs);
  (void)pairs.group_by_key(3, hash, "gbk-spill").collect("gbk-spill:collect");
  ctx.set_spill_fs(nullptr);
  auto names = ctx.parallelize(
      std::vector<std::pair<u32, int>>{{0, 10}, {2, 20}, {2, 21}, {5, 50}}, 2);
  (void)pairs.join(names, 3, hash, "join").collect("join:collect");
  (void)pairs.sort_by_key(3, "sort").collect("sort:collect");
  (void)nums.sample_each(3, 0.4, 11).count("sample_each:count");
  (void)nums.disjoint_splits(3).count("splits:count");
  (void)fanned.reduce([](int a, int b) { return a + b; }, "reduce");

  EXPECT_EQ(ctx.detsan().divergences(), 0u) << "the plan is pure";
  return {stage_rows(ctx.report()), ctx.detsan().tasks_replayed()};
}

TEST(PricingPins, EveryOperatorRecordsTheSameStages) {
  const PinnedRun run = run_pinned_plan(/*detsan=*/false);
  EXPECT_EQ(run.tasks_replayed, 0u);
  EXPECT_EQ(run.rows, (std::vector<std::string>{
                          "zip:count 0 4 1059 0 0",
                          "rbk:map-combine 0 4 1272 312 0",
                          "rbk:reduce 0 3 26 0 0",
                          "rbk:collect 0 3 0 0 0",
                          "abk:map-combine 0 4 1272 312 0",
                          "abk:reduce 0 3 26 0 0",
                          "abk:collect 0 3 0 0 0",
                          "gbk:map 0 4 1272 852 0",
                          "gbk:reduce 0 3 71 0 0",
                          "gbk:collect 0 3 0 0 0",
                          "gbk-spill:map 0 4 1272 852 0",
                          "gbk-spill:spill 0 4 0 0 1048",
                          "gbk-spill:spill-read 0 4 0 0 1048",
                          "gbk-spill:reduce 0 3 71 0 0",
                          "gbk-spill:collect 0 3 0 0 0",
                          "join:left 0 4 1272 852 0",
                          "join:right 0 2 4 32 0",
                          "join:reduce 0 3 75 0 0",
                          "join:collect 0 3 0 0 0",
                          "sort:sample 0 4 1208 0 0",
                          "sort:partition 0 4 1272 852 0",
                          "sort:sort 0 3 71 0 0",
                          "sort:collect 0 3 0 0 0",
                          "sample_each:count 0 6 90 0 0",
                          "splits:count 0 6 90 0 0",
                          "reduce 0 6 444 0 0",
                      }));
}

TEST(PricingPins, DetSanReplaysArePricedTheSame) {
  const PinnedRun run = run_pinned_plan(/*detsan=*/true);
  EXPECT_EQ(run.tasks_replayed, 394u);
  EXPECT_EQ(run.rows, (std::vector<std::string>{
                          "zip:count 0 4 2003 0 0",
                          "rbk:map-combine 0 4 2358 312 0",
                          "rbk:reduce 0 3 26 0 0",
                          "rbk:collect 0 3 0 0 0",
                          "abk:map-combine 0 4 2358 312 0",
                          "abk:reduce 0 3 26 0 0",
                          "abk:collect 0 3 0 0 0",
                          "gbk:map 0 4 2287 852 0",
                          "gbk:reduce 0 3 71 0 0",
                          "gbk:collect 0 3 0 0 0",
                          "gbk-spill:map 0 4 2287 852 0",
                          "gbk-spill:spill 0 4 0 0 1048",
                          "gbk-spill:spill-read 0 4 0 0 1048",
                          "gbk-spill:reduce 0 3 71 0 0",
                          "gbk-spill:collect 0 3 0 0 0",
                          "join:left 0 4 2287 852 0",
                          "join:right 0 2 4 32 0",
                          "join:reduce 0 3 75 0 0",
                          "join:collect 0 3 0 0 0",
                          "sort:sample 0 4 2223 0 0",
                          "sort:partition 0 4 2287 852 0",
                          "sort:sort 0 3 71 0 0",
                          "sort:collect 0 3 0 0 0",
                          "sample_each:count 0 6 90 0 0",
                          "splits:count 0 6 90 0 0",
                          "reduce 0 6 888 0 0",
                      }));
}

}  // namespace
}  // namespace yafim::engine
