// Tests for the determinism sanitizer (engine/detsan.h) and its canonical
// hashing substrate (util/canon_hash.h).
//
// Shape mirrors test_lint.cpp: each seeded impurity (non-commutative
// reduce, by-reference mutable capture, dirty combiner) is paired with the
// nearest clean plan that must NOT fire, plus end-to-end runs proving the
// stock mining pipelines replay clean at sample rate 1.0.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/detsan.h"
#include "engine/detsan_selftest.h"
#include "engine/lint.h"
#include "engine/rdd.h"
#include "fim/mr_apriori.h"
#include "fim/yafim.h"
#include "mapreduce/job.h"
#include "util/bytes.h"
#include "util/canon_hash.h"
#include "util/rng.h"

namespace yafim::engine {
namespace {

Context::Options detsan_on(double rate = 1.0, bool fail_fast = false) {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 2;
  opts.detsan.enabled = true;
  opts.detsan.sample_rate = rate;
  opts.detsan.fail_fast = fail_fast;
  return opts;
}

std::vector<int> iota(int n) {
  std::vector<int> out(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  return out;
}

fim::TransactionDB small_db() {
  Rng rng(41);
  std::vector<fim::Transaction> tx;
  for (int i = 0; i < 200; ++i) {
    fim::Transaction t;
    for (u32 item = 0; item < 12; ++item) {
      if (rng.bernoulli(0.4)) t.push_back(item);
    }
    if (t.empty()) t.push_back(static_cast<fim::Item>(rng.below(12)));
    tx.push_back(std::move(t));
  }
  return fim::TransactionDB(std::move(tx));
}

// --- canonical hashing ---------------------------------------------------

TEST(CanonHash, UnorderedIsPermutationInvariant) {
  const std::vector<int> a = {1, 2, 3, 4, 5};
  const std::vector<int> b = {5, 3, 1, 4, 2};
  EXPECT_EQ(util::canon_hash_unordered(a), util::canon_hash_unordered(b));
  const std::vector<int> dropped = {1, 2, 3, 4};
  EXPECT_NE(util::canon_hash_unordered(a),
            util::canon_hash_unordered(dropped));
  const std::vector<int> duplicated = {1, 2, 3, 4, 5, 5};
  EXPECT_NE(util::canon_hash_unordered(a),
            util::canon_hash_unordered(duplicated));
}

TEST(CanonHash, OrderedIsOrderSensitive) {
  const std::vector<int> a = {1, 2, 3};
  const std::vector<int> b = {3, 2, 1};
  EXPECT_NE(util::canon_hash_ordered(a), util::canon_hash_ordered(b));
  EXPECT_EQ(util::canon_hash_ordered(a), util::canon_hash_ordered(a));
}

TEST(CanonHash, ScalarsHashCanonically) {
  // Signed/width widening: the same value hashes alike across int types.
  EXPECT_EQ(util::canon_hash_value(i32{5}), util::canon_hash_value(i64{5}));
  EXPECT_EQ(util::canon_hash_value(i32{-7}), util::canon_hash_value(i64{-7}));
  // Both floating-point zeros compare equal, so they must hash equal.
  EXPECT_EQ(util::canon_hash_value(0.0), util::canon_hash_value(-0.0));
  EXPECT_NE(util::canon_hash_value(1.0), util::canon_hash_value(2.0));
}

TEST(CanonHash, PairAndNestedShapesAreHashable) {
  static_assert(util::is_canon_hashable_v<std::pair<const std::string, u64>>,
                "map iteration yields pair<const K, V>");
  static_assert(util::is_canon_hashable_v<std::vector<std::pair<int, double>>>);
  static_assert(!util::is_canon_hashable_v<std::set<int>>);
  const std::pair<std::string, u64> p{"abc", 7};
  const std::pair<std::string, u64> q{"abc", 8};
  EXPECT_NE(util::canon_hash_value(p), util::canon_hash_value(q));
}

// --- sampling and permutation machinery ----------------------------------

TEST(DetSan, PermutationIsDeterministicAndNeverIdentity) {
  for (size_t n : {2u, 3u, 5u, 16u, 100u}) {
    for (u64 seed : {1ull, 42ull, 0xDE75A11ull}) {
      const auto perm = DetSan::permutation(n, seed);
      ASSERT_EQ(perm.size(), n);
      EXPECT_EQ(perm, DetSan::permutation(n, seed));
      std::set<u32> seen(perm.begin(), perm.end());
      EXPECT_EQ(seen.size(), n) << "must be a permutation";
      bool identity = true;
      for (size_t i = 0; i < n; ++i) identity &= (perm[i] == i);
      EXPECT_FALSE(identity) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(DetSan, SamplingIsDeterministicAndRateGated) {
  Context ctx0(detsan_on(0.0));
  Context ctx1(detsan_on(1.0));
  Context ctx_half(detsan_on(0.5));
  Context ctx_half2(detsan_on(0.5));
  u32 sampled = 0;
  for (u32 node = 1; node < 20; ++node) {
    for (u32 pid = 0; pid < 8; ++pid) {
      EXPECT_FALSE(ctx0.detsan().should_replay(node, pid));
      EXPECT_TRUE(ctx1.detsan().should_replay(node, pid));
      EXPECT_EQ(ctx_half.detsan().should_replay(node, pid),
                ctx_half2.detsan().should_replay(node, pid));
      sampled += ctx_half.detsan().should_replay(node, pid);
    }
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, 19u * 8u);
}

TEST(DetSan, EnablingForcesTheLinterOn) {
  Context ctx(detsan_on());
  EXPECT_TRUE(ctx.detsan().enabled());
  EXPECT_TRUE(ctx.linter().enabled());
}

// --- clean plans must not fire -------------------------------------------

TEST(DetSan, PurePipelineReplaysClean) {
  Context ctx(detsan_on(1.0));
  using KV = std::pair<int, int>;
  auto counts = ctx.parallelize(iota(200), 4)
                    .map([](const int& x) { return x * 3; })
                    .filter([](const int& x) { return x % 2 == 0; })
                    .flat_map([](const int& x) {
                      return std::vector<int>{x, x + 1};
                    })
                    .map([](const int& x) { return KV(x % 5, 1); })
                    .reduce_by_key([](int a, int b) { return a + b; });
  counts.collect();
  const auto sum = ctx.parallelize(iota(100), 4).reduce(
      [](int a, int b) { return a + b; });
  EXPECT_EQ(sum, 4950);
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
  EXPECT_EQ(ctx.linter().count("YL007"), 0u);
}

TEST(DetSan, OrderSensitiveButDeterministicMapPartitionsIsClean) {
  // A partition function may legitimately depend on element order (prefix
  // sums); the replay only checks it is a *function* of that order.
  Context ctx(detsan_on(1.0));
  auto prefix = ctx.parallelize(iota(64), 4).map_partitions(
      [](const std::vector<int>& part) {
        std::vector<int> out;
        int acc = 0;
        for (int x : part) out.push_back(acc += x);
        return out;
      });
  prefix.collect();
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- seeded impurities must fire -----------------------------------------

TEST(DetSan, NonCommutativeReduceDivergesAsYL007) {
  Context ctx(detsan_on(1.0));
  auto rdd = ctx.parallelize(iota(64), 4);
  rdd.named("bad-fold");
  // detsan: intentional-divergence -- the impurity under test.
  (void)rdd.reduce([](int a, int b) { return a - b; });
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  ASSERT_GE(ctx.linter().count("YL007"), 1u);
  bool named = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL007") continue;
    EXPECT_EQ(diag.severity, LintSeverity::kError);
    named |= diag.node_name == "bad-fold";
  }
  EXPECT_TRUE(named) << "YL007 must name the diverging node";
  EXPECT_TRUE(ctx.linter().any_at_least(LintSeverity::kError));
}

TEST(DetSan, StatefulByRefCaptureDivergesWithNodeName) {
  Context ctx(detsan_on(1.0));
  auto rdd = ctx.parallelize(iota(64), 4);
  std::atomic<int> calls{0};
  // detsan: intentional-divergence -- the impurity under test.
  auto tagged = rdd.map([&calls](const int& x) {
    return x * 16 + (calls.fetch_add(1, std::memory_order_relaxed) & 15);
  });
  tagged.named("leaky-map");
  tagged.collect();
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  bool named = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    named |= diag.rule == "YL007" && diag.node_name == "leaky-map";
  }
  EXPECT_TRUE(named);
}

/// Expect a YL007 diagnostic naming node `name` whose message names the
/// replayed operator `op`.
void expect_yl007(const Context& ctx, const std::string& name,
                  const std::string& op) {
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  bool found = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL007" || diag.node_name != name) continue;
    found = true;
    EXPECT_NE(diag.message.find("replay of " + op + " with permuted input"),
              std::string::npos)
        << diag.message;
  }
  EXPECT_TRUE(found) << "no YL007 on '" << name << "'";
}

// Each impurity below diverges on every permutation: one partition, so the
// replay follows its primary pass with no other task in between, and a
// replay order that is never the identity.

TEST(DetSan, StatefulFlatMapDivergesNamingTheOp) {
  Context ctx(detsan_on(1.0));
  std::atomic<int> calls{0};
  // detsan: intentional-divergence -- the impurity under test.
  auto fanned = ctx.parallelize(iota(32), 1).flat_map([&calls](const int& x) {
    // Every call draws a fresh count, so no replay output repeats one.
    return std::vector<int>{x * 1000 + calls.fetch_add(1)};
  });
  fanned.named("leaky-flat-map");
  fanned.collect();
  expect_yl007(ctx, "leaky-flat-map", "flat_map");
}

TEST(DetSan, StatefulFilterDivergesNamingTheOp) {
  Context ctx(detsan_on(1.0));
  std::atomic<int> calls{0};
  // detsan: intentional-divergence -- the impurity under test.
  auto kept = ctx.parallelize(iota(32), 1).filter([&calls](const int&) {
    return calls.fetch_add(1) < 32;  // keeps the primary pass, drops the replay
  });
  kept.named("leaky-filter");
  kept.collect();
  expect_yl007(ctx, "leaky-filter", "filter");
}

/// One key whose values are the decimal digits 1..6: folding them with
/// `acc * 10 + v` spells the visiting order, so any reordering changes it.
RDD<std::pair<u32, u64>> digits(Context& ctx) {
  std::vector<std::pair<u32, u64>> pairs;
  for (u64 d = 1; d <= 6; ++d) pairs.emplace_back(0, d);
  auto rdd = ctx.parallelize(std::move(pairs), 1);
  rdd.named("digits");
  return rdd;
}

TEST(DetSan, NonCommutativeReduceByKeyDivergesNamingTheOp) {
  Context ctx(detsan_on(1.0));
  // detsan: intentional-divergence -- the impurity under test.
  (void)digits(ctx)
      .reduce_by_key([](u64 a, u64 b) { return a * 10 + b; })
      .collect();
  expect_yl007(ctx, "digits", "reduce_by_key");
}

TEST(DetSan, FailFastThrowsDetSanErrorNamingNodeAndStage) {
  Context ctx(detsan_on(1.0, /*fail_fast=*/true));
  auto rdd = ctx.parallelize(iota(64), 4);
  rdd.named("bad-fold");
  try {
    // detsan: intentional-divergence -- the impurity under test.
    (void)rdd.reduce([](int a, int b) { return a - b; }, "fold-stage");
    FAIL() << "expected DetSanError";
  } catch (const DetSanError& e) {
    EXPECT_EQ(e.node_name(), "bad-fold");
    EXPECT_EQ(e.stage(), "fold-stage");
    EXPECT_FALSE(e.element().empty());
    EXPECT_NE(std::string(e.what()).find("bad-fold"), std::string::npos);
  }
}

TEST(DetSan, SelftestFixturesBothDiverge) {
  Context ctx(detsan_on(1.0));
  const auto result = detsan_selftest::run(ctx);
  EXPECT_GT(result.tasks_replayed, 0u);
  EXPECT_GT(result.divergences, 0u);
  bool saw_fold = false;
  bool saw_map = false;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule != "YL007") continue;
    saw_fold |= diag.node_name == "noncommutative-fold";
    saw_map |= diag.node_name == "stateful-map";
  }
  EXPECT_TRUE(saw_fold);
  EXPECT_TRUE(saw_map);
}

TEST(DetSan, DisabledSanitizerNeverReplays) {
  Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 2;
  Context ctx(opts);
  auto rdd = ctx.parallelize(iota(64), 4);
  // Impure on purpose: with the sanitizer off nothing may fire.
  (void)rdd.reduce([](int a, int b) { return a - b; });
  EXPECT_EQ(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- MapReduce combiner hook ---------------------------------------------

using CombineSpec = mr::JobSpec<u64, u64, i64, std::pair<u64, i64>>;

CombineSpec combine_spec(bool commutative) {
  CombineSpec spec;
  spec.name = commutative ? "clean-combine" : "dirty-combine";
  spec.decode_input = [](const std::vector<u8>& bytes) {
    ByteReader r(bytes);
    const u64 n = r.read_u64();
    std::vector<u64> records;
    for (u64 i = 0; i < n; ++i) records.push_back(r.read_u64());
    return records;
  };
  spec.map_fn = [](const u64& x, mr::Emitter<u64, i64>& emit) {
    emit.emit(x % 3, static_cast<i64>(x));
  };
  if (commutative) {
    spec.combine_fn = [](const i64& a, const i64& b) { return a + b; };
  } else {
    // detsan: intentional-divergence -- the impurity under test.
    spec.combine_fn = [](const i64& a, const i64& b) { return a - b; };
  }
  spec.reduce_fn = [](const u64& k, std::vector<i64>& values)
      -> std::optional<std::pair<u64, i64>> {
    i64 sum = 0;
    for (i64 v : values) sum += v;
    return std::make_pair(k, sum);
  };
  spec.encode_output = [](const std::vector<std::pair<u64, i64>>& out) {
    ByteWriter w;
    w.write_u64(out.size());
    return w.take();
  };
  return spec;
}

TEST(DetSan, MapReduceCombinerHookFlagsNonCommutativeCombine) {
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  ByteWriter w;
  w.write_u64(256);
  for (u64 i = 0; i < 256; ++i) w.write_u64(i);
  fs.write("in", w.take());
  mr::JobRunner runner(ctx, fs);
  (void)runner.run(combine_spec(/*commutative=*/false), "in", "out");
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_GT(ctx.detsan().divergences(), 0u);
  // The finding blames the combine fn's order sensitivity, not the
  // serialization of a spill block.
  const auto diags = ctx.linter().diagnostics();
  ASSERT_FALSE(diags.empty());
  for (const auto& diag : diags) {
    EXPECT_EQ(diag.rule, "YL007");
    EXPECT_EQ(diag.node_name.rfind("job 'dirty-combine' map task ", 0), 0u)
        << diag.node_name;
    EXPECT_NE(diag.message.find("replay of combine with permuted input"),
              std::string::npos)
        << diag.message;
    EXPECT_NE(diag.message.find("non-commutative"), std::string::npos)
        << diag.message;
    EXPECT_EQ(diag.message.find("serializ"), std::string::npos)
        << diag.message;
  }
}

TEST(DetSan, MapReduceCombinerHookCleanOnCommutativeCombine) {
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  ByteWriter w;
  w.write_u64(256);
  for (u64 i = 0; i < 256; ++i) w.write_u64(i);
  fs.write("in", w.take());
  mr::JobRunner runner(ctx, fs);
  (void)runner.run(combine_spec(/*commutative=*/true), "in", "out");
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

// --- sum_arrays and shuffle spill ----------------------------------------

TEST(DetSan, SumArraysTasksAndSpillBlocksStillReplayed) {
  // Free task launches send the merge through the reducers' shuffle, which
  // spills; otherwise it ends on the driver, which never does.
  for (const bool reducers : {true, false}) {
    for (const bool spill : {false, true}) {
      Context::Options opts = detsan_on(1.0);
      opts.host_threads = 4;
      if (reducers) opts.cluster.spark_task_launch_s = 0.0;
      if (spill) opts.cluster.shuffle_buffer_bytes = 1;
      Context ctx(opts);
      simfs::SimFS fs(ctx.cluster());
      ctx.set_spill_fs(&fs);
      std::vector<std::vector<u64>> arrays(16, std::vector<u64>(40, 3));
      const auto merged =
          ctx.parallelize(std::move(arrays), 8).sum_arrays(40);
      EXPECT_EQ(merged, std::vector<u64>(40, 48));
      // One replay per map task, plus one re-serialization per spill block.
      const bool spilled = reducers && spill;
      EXPECT_EQ(ctx.detsan().tasks_replayed(), spilled ? 16u : 8u);
      EXPECT_EQ(ctx.detsan().divergences(), 0u);
      EXPECT_EQ(ctx.memory_budget().spill_blocks_written(),
                spilled ? 8u : 0u);
    }
  }
}

}  // namespace

/// A spillable value whose encoding can be unstable, as uninitialized
/// bytes would make it: an unstable one serializes differently each time.
struct Flaky {
  u64 value = 0;
  bool unstable = false;
};

template <>
struct detail::SpillFormat<Flaky> : std::true_type {};

std::atomic<u64> g_flaky_writes{0};

void spill_put(std::vector<u8>& out, const Flaky& f) {
  const u64 v = f.unstable ? g_flaky_writes.fetch_add(1) : f.value;
  const size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void spill_get(std::span<const u8> in, size_t& pos, Flaky& f) {
  std::memcpy(&f.value, in.data() + pos, sizeof(f.value));
  pos += sizeof(f.value);
}

namespace {

/// 64 pairs over 8 partitions (8 per map task); the unstable values at 17
/// and 43 put divergent bytes into spill blocks #2 and #5.
std::vector<std::pair<u32, Flaky>> flaky_pairs() {
  std::vector<std::pair<u32, Flaky>> pairs;
  for (u32 i = 0; i < 64; ++i) {
    pairs.emplace_back(i % 3, Flaky{i, i == 17 || i == 43});
  }
  return pairs;
}

Context::Options spilling_detsan(bool fail_fast) {
  Context::Options opts = detsan_on(1.0, fail_fast);
  opts.host_threads = 4;
  opts.cluster.shuffle_buffer_bytes = 1;
  return opts;
}

TEST(DetSan, UnstableSpillBlocksReportedInBlockOrder) {
  Context ctx(spilling_detsan(/*fail_fast=*/false));
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  const auto groups = ctx.parallelize(flaky_pairs(), 8)
                          .group_by_key(4, std::hash<u32>{}, "gbk")
                          .collect();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(ctx.detsan().divergences(), 2u);
  std::vector<std::string> named;
  for (const auto& diag : ctx.linter().diagnostics()) {
    if (diag.rule == "YL007") named.push_back(diag.node_name);
  }
  EXPECT_EQ(named, (std::vector<std::string>{"spill block 'gbk' #2",
                                             "spill block 'gbk' #5"}));
}

TEST(DetSan, FailFastNamesLowestDivergingSpillBlock) {
  Context ctx(spilling_detsan(/*fail_fast=*/true));
  simfs::SimFS fs(ctx.cluster());
  ctx.set_spill_fs(&fs);
  try {
    (void)ctx.parallelize(flaky_pairs(), 8)
        .group_by_key(4, std::hash<u32>{}, "gbk")
        .collect();
    FAIL() << "expected DetSanError";
  } catch (const DetSanError& e) {
    EXPECT_EQ(e.node_name(), "spill block 'gbk' #2");
    EXPECT_NE(std::string(e.what()).find("spill-serialize"),
              std::string::npos);
  }
  // The report comes before any block reaches simfs.
  EXPECT_EQ(ctx.memory_budget().spill_blocks_written(), 0u);
  EXPECT_TRUE(fs.list("spill/").empty());
}

// --- end-to-end: the stock pipelines replay clean ------------------------

TEST(DetSan, StockYafimReplaysClean) {
  const auto db = small_db();
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  fim::YafimOptions opt;
  opt.min_support = 0.2;
  const auto run = fim::yafim_mine(ctx, fs, db, opt);
  ASSERT_GT(run.itemsets.max_k(), 1u) << "need a multi-pass run";
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
  EXPECT_EQ(ctx.linter().count("YL007"), 0u);
}

TEST(DetSan, StockMrAprioriReplaysClean) {
  const auto db = small_db();
  Context ctx(detsan_on(1.0));
  simfs::SimFS fs(ctx.cluster());
  fim::MrAprioriOptions opt;
  opt.min_support = 0.2;
  const auto run = fim::mr_apriori_mine(ctx, fs, db, opt);
  ASSERT_GT(run.itemsets.total(), 0u);
  EXPECT_GT(ctx.detsan().tasks_replayed(), 0u);
  EXPECT_EQ(ctx.detsan().divergences(), 0u);
}

}  // namespace
}  // namespace yafim::engine
