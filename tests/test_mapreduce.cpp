// Unit tests for the MapReduce-on-SimFS substrate: a word-count style job,
// combiner equivalence, cost recording, the distributed cache, and the
// pricing pin of a combiner job.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mapreduce/job.h"
#include "sim/corruption.h"
#include "util/bytes.h"

namespace yafim::mr {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

/// Lines-of-text <-> bytes helpers for a word-count job.
std::vector<u8> encode_lines(const std::vector<std::string>& lines) {
  ByteWriter w;
  w.write_u64(lines.size());
  for (const auto& line : lines) w.write_string(line);
  return w.take();
}

std::vector<std::string> decode_lines(const std::vector<u8>& bytes) {
  ByteReader r(bytes);
  const u64 n = r.read_u64();
  std::vector<std::string> lines;
  for (u64 i = 0; i < n; ++i) lines.push_back(r.read_string());
  return lines;
}

using WordCountSpec =
    JobSpec<std::string, std::string, u64, std::pair<std::string, u64>>;

WordCountSpec word_count_spec(bool with_combiner) {
  WordCountSpec spec;
  spec.name = "wordcount";
  spec.decode_input = decode_lines;
  spec.map_fn = [](const std::string& line,
                   Emitter<std::string, u64>& emit) {
    std::istringstream words(line);
    std::string word;
    while (words >> word) emit.emit(word, 1);
  };
  if (with_combiner) {
    spec.combine_fn = [](const u64& a, const u64& b) { return a + b; };
  }
  spec.reduce_fn = [](const std::string& word, std::vector<u64>& values)
      -> std::optional<std::pair<std::string, u64>> {
    u64 sum = 0;
    for (u64 v : values) sum += v;
    return std::make_pair(word, sum);
  };
  spec.encode_output = [](const std::vector<std::pair<std::string, u64>>& out) {
    ByteWriter w;
    w.write_u64(out.size());
    for (const auto& [word, count] : out) {
      w.write_string(word);
      w.write_u64(count);
    }
    return w.take();
  };
  return spec;
}

std::vector<std::string> sample_lines() {
  return {"the quick brown fox", "the lazy dog", "the fox", "dog", ""};
}

TEST(MapReduce, WordCountCorrect) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));

  JobRunner runner(ctx, fs);
  auto result = runner.run(word_count_spec(true), "in", "out");

  std::unordered_map<std::string, u64> counts;
  for (auto& [w, c] : result.output) counts[w] = c;
  EXPECT_EQ(counts.at("the"), 3u);
  EXPECT_EQ(counts.at("fox"), 2u);
  EXPECT_EQ(counts.at("dog"), 2u);
  EXPECT_EQ(counts.at("quick"), 1u);
  EXPECT_EQ(counts.size(), 6u);
  EXPECT_TRUE(fs.exists("out"));
}

TEST(MapReduce, CombinerDoesNotChangeResults) {
  engine::Context ctx1(small_cluster()), ctx2(small_cluster());
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());
  fs1.write("in", encode_lines(sample_lines()));
  fs2.write("in", encode_lines(sample_lines()));

  // One mapper so repeated words land in the same map task and the
  // combiner has something to collapse.
  auto spec_with = word_count_spec(true);
  auto spec_without = word_count_spec(false);
  spec_with.num_mappers = spec_without.num_mappers = 1;
  auto with = JobRunner(ctx1, fs1).run(spec_with, "in", "out");
  auto without = JobRunner(ctx2, fs2).run(spec_without, "in", "out");

  std::unordered_map<std::string, u64> a, b;
  for (auto& [w, c] : with.output) a[w] = c;
  for (auto& [w, c] : without.output) b[w] = c;
  EXPECT_EQ(a, b);
  // But the combiner must reduce shuffle traffic ("the" x3 collapses).
  EXPECT_LT(with.shuffle_bytes, without.shuffle_bytes);
}

TEST(MapReduce, RecordsStartupMapReduceStages) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  ctx.set_pass(4);
  JobRunner(ctx, fs).run(word_count_spec(true), "in", "out");

  const auto& stages = ctx.report().stages();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].kind, sim::StageKind::kOverhead);
  EXPECT_DOUBLE_EQ(stages[0].fixed_overhead_s,
                   ctx.cluster().mr_job_startup_s);
  EXPECT_EQ(stages[1].kind, sim::StageKind::kMapPhase);
  EXPECT_GT(stages[1].dfs_read_bytes, 0u);
  EXPECT_EQ(stages[2].kind, sim::StageKind::kReducePhase);
  EXPECT_GT(stages[2].dfs_write_bytes, 0u);
  for (const auto& s : stages) EXPECT_EQ(s.pass, 4u);
}

TEST(MapReduce, JobCostDominatedByStartup) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  JobRunner(ctx, fs).run(word_count_spec(true), "in", "out");
  const double total = ctx.sim_seconds();
  EXPECT_GT(total, ctx.cluster().mr_job_startup_s);
}

TEST(MapReduce, DistributedCacheChargedPerNode) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  auto spec = word_count_spec(true);
  spec.distributed_cache_bytes = 1000;
  JobRunner(ctx, fs).run(spec, "in", "out");
  const auto& map_stage = ctx.report().stages()[1];
  EXPECT_EQ(map_stage.broadcast_bytes, 1000u * ctx.cluster().nodes);
}

TEST(MapReduce, ExplicitTaskCounts) {
  // Exact stage shapes: pin injection off (retries/speculative copies add
  // task records), so this holds under the CI fault matrix too.
  auto opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  auto spec = word_count_spec(true);
  spec.num_mappers = 3;
  spec.num_reducers = 5;
  auto result = JobRunner(ctx, fs).run(spec, "in", "out");
  EXPECT_EQ(result.map_tasks, 3u);
  EXPECT_EQ(result.reduce_tasks, 5u);
  EXPECT_EQ(ctx.report().stages()[1].tasks.size(), 3u);
  EXPECT_EQ(ctx.report().stages()[2].tasks.size(), 5u);
}

TEST(MapReduce, MoreMappersThanRecords) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines({"one line"}));
  auto spec = word_count_spec(true);
  spec.num_mappers = 16;
  auto result = JobRunner(ctx, fs).run(spec, "in", "out");
  std::unordered_map<std::string, u64> counts;
  for (auto& [w, c] : result.output) counts[w] = c;
  EXPECT_EQ(counts.at("one"), 1u);
  EXPECT_EQ(counts.at("line"), 1u);
}

TEST(MapReduce, MapPartitionFnEquivalentToPerRecordMap) {
  engine::Context ctx1(small_cluster()), ctx2(small_cluster());
  simfs::SimFS fs1(ctx1.cluster()), fs2(ctx2.cluster());
  fs1.write("in", encode_lines(sample_lines()));
  fs2.write("in", encode_lines(sample_lines()));

  auto per_record = word_count_spec(true);
  auto per_split = word_count_spec(true);
  per_split.map_fn = nullptr;
  per_split.map_partition_fn = [](std::span<const std::string> split,
                                  Emitter<std::string, u64>& emit) {
    for (const std::string& line : split) {
      std::istringstream words(line);
      std::string word;
      while (words >> word) emit.emit(word, 1);
    }
  };

  auto a = JobRunner(ctx1, fs1).run(per_record, "in", "out");
  auto b = JobRunner(ctx2, fs2).run(per_split, "in", "out");
  std::unordered_map<std::string, u64> ma, mb;
  for (auto& [w, c] : a.output) ma[w] = c;
  for (auto& [w, c] : b.output) mb[w] = c;
  EXPECT_EQ(ma, mb);
}

TEST(MapReduce, BothMapFnsSetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  auto spec = word_count_spec(true);
  spec.map_partition_fn = [](std::span<const std::string>,
                             Emitter<std::string, u64>&) {};
  EXPECT_DEATH(JobRunner(ctx, fs).run(spec, "in", "out"), "not both");
}

TEST(MapReduce, ReduceCanDropKeys) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  auto spec = word_count_spec(true);
  spec.reduce_fn = [](const std::string& word, std::vector<u64>& values)
      -> std::optional<std::pair<std::string, u64>> {
    u64 sum = 0;
    for (u64 v : values) sum += v;
    if (sum < 2) return std::nullopt;  // a MinSup-style threshold
    return std::make_pair(word, sum);
  };
  auto result = JobRunner(ctx, fs).run(spec, "in", "out");
  EXPECT_EQ(result.output.size(), 3u);  // the, fox, dog
}

// Pricing pin: the stages one combiner job records -- label, kind, task
// count, summed task work, shuffle and DFS bytes -- and DetSan's replay
// count, recorded once; the combiner may change how it computes but never
// these numbers.
struct PinnedJob {
  std::vector<std::string> rows;
  u64 tasks_replayed = 0;
  u64 divergences = 0;
  std::vector<std::pair<std::string, u64>> output;  // sorted
};

PinnedJob run_pinned_job(bool detsan) {
  auto opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  opts.detsan.enabled = detsan;
  opts.detsan.sample_rate = 1.0;
  engine::Context ctx(opts);
  simfs::SimFS fs(ctx.cluster(), sim::CorruptionProfile{});
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    std::string line;
    for (int j = 0; j <= i % 6; ++j) {
      line += "w" + std::to_string((i * j + j) % 7) + " ";
    }
    lines.push_back(line);
  }
  fs.write("in", encode_lines(lines));
  auto spec = word_count_spec(true);
  spec.num_mappers = 3;
  spec.num_reducers = 2;
  auto result = JobRunner(ctx, fs).run(spec, "in", "out");

  PinnedJob out;
  out.output = std::move(result.output);
  std::sort(out.output.begin(), out.output.end());
  for (const sim::StageRecord& stage : ctx.report().stages()) {
    u64 work = 0;
    for (const sim::TaskRecord& task : stage.tasks) work += task.work;
    std::ostringstream row;
    row << stage.label << ' ' << static_cast<int>(stage.kind) << ' '
        << stage.tasks.size() << ' ' << work << ' ' << stage.shuffle_bytes
        << ' ' << stage.dfs_read_bytes + stage.dfs_write_bytes;
    out.rows.push_back(row.str());
  }
  out.tasks_replayed = ctx.detsan().tasks_replayed();
  out.divergences = ctx.detsan().divergences();
  return out;
}

TEST(MapReduce, CombinerJobPricingPinned) {
  const PinnedJob plain = run_pinned_job(/*detsan=*/false);
  EXPECT_EQ(plain.tasks_replayed, 0u);
  EXPECT_EQ(plain.rows, (std::vector<std::string>{
                            "wordcount:startup 3 0 0 0 0",
                            "wordcount:map 1 3 80312 0 736",
                            "wordcount:reduce 2 2 42 378 134",
                        }));
  const PinnedJob replayed = run_pinned_job(/*detsan=*/true);
  EXPECT_EQ(replayed.tasks_replayed, 3u);
  EXPECT_EQ(replayed.rows, (std::vector<std::string>{
                               "wordcount:startup 3 0 0 0 0",
                               "wordcount:map 1 3 80448 0 736",
                               "wordcount:reduce 2 2 42 378 134",
                           }));
  // A replayed map task's combine copies the emitted keys, which the replay
  // then re-reads; an unreplayed one moves them. Both reach one output.
  EXPECT_EQ(replayed.divergences, 0u);
  EXPECT_EQ(plain.output.size(), 7u);
  EXPECT_EQ(replayed.output, plain.output);
}

TEST(MapReduce, OutputRoundTripsThroughDfs) {
  engine::Context ctx(small_cluster());
  simfs::SimFS fs(ctx.cluster());
  fs.write("in", encode_lines(sample_lines()));
  auto result = JobRunner(ctx, fs).run(word_count_spec(true), "in", "out");
  const auto raw = fs.read("out");
  EXPECT_EQ(raw.size(), result.output_bytes);
  ByteReader r(raw);
  EXPECT_EQ(r.read_u64(), result.output.size());
}

}  // namespace
}  // namespace yafim::mr
