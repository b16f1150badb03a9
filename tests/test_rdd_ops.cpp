// Tests for the shuffle and indexing operators beyond the paper's core set
// (group_by_key, zip_with_index), plus the pricing pins every operator
// must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "engine/rdd.h"
#include "sim/corruption.h"

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
  auto pairs = prefix.zip_with_index("zip").map(
      [](const std::pair<int, u64>& p) {
        return KV(static_cast<u32>(p.first % 7), p.second);
      });
  const std::hash<u32> hash;

  (void)pairs.reduce_by_key([](u64 a, u64 b) { return a + b; }, 3, hash, "rbk")
      .collect("rbk:collect");
  (void)pairs.group_by_key(3, hash, "gbk").collect("gbk:collect");
  ctx.set_spill_fs(&fs);
  (void)pairs.group_by_key(3, hash, "gbk-spill").collect("gbk-spill:collect");
  ctx.set_spill_fs(nullptr);
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
                          "zip:count 0 6 494 0 0",
                          "rbk:map-combine 0 6 626 336 0",
                          "rbk:reduce 0 3 28 0 0",
                          "rbk:collect 0 3 0 0 0",
                          "gbk:map 0 6 626 528 0",
                          "gbk:reduce 0 3 44 0 0",
                          "gbk:collect 0 3 0 0 0",
                          "gbk-spill:map 0 6 626 528 0",
                          "gbk-spill:spill 0 6 0 0 813",
                          "gbk-spill:spill-read 0 6 0 0 813",
                          "gbk-spill:reduce 0 3 44 0 0",
                          "gbk-spill:collect 0 3 0 0 0",
                          "sample_each:count 0 6 90 0 0",
                          "splits:count 0 6 90 0 0",
                          "reduce 0 6 444 0 0",
                      }));
}

TEST(PricingPins, DetSanReplaysArePricedTheSame) {
  const PinnedRun run = run_pinned_plan(/*detsan=*/true);
  EXPECT_EQ(run.tasks_replayed, 144u);
  EXPECT_EQ(run.rows, (std::vector<std::string>{
                          "zip:count 0 6 988 0 0",
                          "rbk:map-combine 0 6 1208 336 0",
                          "rbk:reduce 0 3 28 0 0",
                          "rbk:collect 0 3 0 0 0",
                          "gbk:map 0 6 1164 528 0",
                          "gbk:reduce 0 3 44 0 0",
                          "gbk:collect 0 3 0 0 0",
                          "gbk-spill:map 0 6 1164 528 0",
                          "gbk-spill:spill 0 6 0 0 813",
                          "gbk-spill:spill-read 0 6 0 0 813",
                          "gbk-spill:reduce 0 3 44 0 0",
                          "gbk-spill:collect 0 3 0 0 0",
                          "sample_each:count 0 6 90 0 0",
                          "splits:count 0 6 90 0 0",
                          "reduce 0 6 888 0 0",
                      }));
}

}  // namespace
}  // namespace yafim::engine
