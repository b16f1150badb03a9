// Microbenchmarks (google-benchmark) for the building blocks: hash-tree
// construction and probing, the candidate-trie walk, the bitmap kernel,
// candidate generation, subset tests, the RDD
// shuffle, and SimFS round-trips. These measure real host performance (not
// simulated time) and back the constants discussed in sim/cost_model.h.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <set>

#include "datagen/quest.h"
#include "engine/rdd.h"
#include "fim/bitmap.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/dataset.h"
#include "fim/hash_tree.h"
#include "util/log.h"
#include "util/rng.h"

namespace {

using namespace yafim;
using fim::Item;
using fim::Itemset;
using fim::Transaction;

std::vector<Itemset> random_candidates(u32 n, u32 k, u32 universe, u64 seed) {
  Rng rng(seed);
  std::set<Itemset> unique;
  while (unique.size() < n) {
    Itemset c;
    while (c.size() < k) {
      const Item item = static_cast<Item>(rng.below(universe));
      if (std::find(c.begin(), c.end(), item) == c.end()) c.push_back(item);
    }
    fim::canonicalize(c);
    unique.insert(std::move(c));
  }
  return {unique.begin(), unique.end()};
}

fim::TransactionDB quest_db(u64 transactions) {
  datagen::QuestParams params;
  params.num_transactions = transactions;
  params.num_items = 400;
  params.num_patterns = 100;
  return datagen::generate_quest(params);
}

void BM_HashTreeBuild(benchmark::State& state) {
  const auto candidates = random_candidates(
      static_cast<u32>(state.range(0)), 3, 200, 1);
  for (auto _ : state) {
    fim::HashTree tree(candidates);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTreeBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_HashTreeProbe(benchmark::State& state) {
  const auto candidates = random_candidates(
      static_cast<u32>(state.range(0)), 3, 200, 2);
  fim::HashTree tree(candidates);
  const auto db = quest_db(200);
  fim::HashTree::Probe probe;
  u64 hits = 0;
  for (auto _ : state) {
    for (const Transaction& t : db.transactions()) {
      tree.for_each_contained(t, probe, [&](u32) { ++hits; });
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * db.size());
}
BENCHMARK(BM_HashTreeProbe)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LinearProbe(benchmark::State& state) {
  const auto candidates = random_candidates(
      static_cast<u32>(state.range(0)), 3, 200, 2);
  fim::HashTree tree(candidates);
  const auto db = quest_db(200);
  u64 hits = 0;
  for (auto _ : state) {
    for (const Transaction& t : db.transactions()) {
      tree.for_each_contained_linear(t, [&](u32) { ++hits; });
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * db.size());
}
BENCHMARK(BM_LinearProbe)->Arg(100)->Arg(1000)->Arg(10000);

/// The dense mode's per-row kernel for k >= 3 (fim/count_core.h
/// CandidateTrie): the same candidates and rows as BM_HashTreeProbe, walked
/// on the prefix trie over the candidate rows.
void BM_TrieProbe(benchmark::State& state) {
  const auto candidates = random_candidates(
      static_cast<u32>(state.range(0)), 3, 200, 2);
  const fim::ItemsetRows rows = fim::to_rows(candidates);
  const fim::CandidateTrie trie(fim::LevelView::of(rows, 0));
  const auto db = quest_db(200);
  std::vector<u64> cells(rows.size());
  for (auto _ : state) {
    for (const Transaction& t : db.transactions()) {
      trie.count_row(t, cells.data());
    }
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * db.size());
}
BENCHMARK(BM_TrieProbe)->Arg(100)->Arg(1000)->Arg(10000);

/// The vertical counting kernel (fim/bitmap.h): support of every candidate
/// of a level via word-parallel AND + popcount over the per-item rows of an
/// index over the candidate items, the one count_rows switches to.
/// Compare against BM_TrieProbe / BM_HashTreeProbe / BM_LinearProbe at the
/// same candidate counts -- this is the per-row work a dense task's kernel
/// choice trades.
void BM_BitmapAndPopcount(benchmark::State& state) {
  const auto candidates = random_candidates(
      static_cast<u32>(state.range(0)), 3, 200, 2);
  const fim::ItemsetRows rows = fim::to_rows(candidates);
  const auto level = fim::LevelView::of(rows, 0);
  const auto db = quest_db(200);
  const fim::VerticalBitmapIndex index(db.transactions(),
                                       fim::candidate_items({&level, 1}));
  std::vector<u64> cells(rows.size());
  for (auto _ : state) {
    std::fill(cells.begin(), cells.end(), 0);
    index.count_candidates(level, cells.data());
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitmapAndPopcount)->Arg(100)->Arg(1000)->Arg(10000);

/// A T10-shaped L2 over `items` items: every pair of 300 overlapping
/// patterns of 3-9 items (half drawn from the 100 most popular ids) plus
/// 4000 random pairs, so prefix classes range from empty to ~100 rows.
std::vector<Itemset> t10_shaped_l2(u32 items) {
  Rng rng(11);
  std::set<Itemset> pairs;
  for (int p = 0; p < 300; ++p) {
    std::vector<Item> pattern;
    const u32 len = 3 + static_cast<u32>(rng.below(7));
    while (pattern.size() < len) {
      const Item item =
          static_cast<Item>(rng.below(rng.bernoulli(0.5) ? 100 : items));
      if (std::find(pattern.begin(), pattern.end(), item) == pattern.end()) {
        pattern.push_back(item);
      }
    }
    std::sort(pattern.begin(), pattern.end());
    for (u32 a = 0; a < len; ++a) {
      for (u32 b = a + 1; b < len; ++b) pairs.insert({pattern[a], pattern[b]});
    }
  }
  for (int r = 0; r < 4000; ++r) {
    const Item a = static_cast<Item>(rng.below(items));
    const Item b = static_cast<Item>(rng.below(items));
    if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
  }
  return {pairs.begin(), pairs.end()};
}

void BM_AprioriGen(benchmark::State& state) {
  // shape 0: L2 over a clique of items, one prefix class per item and
  // every triple a candidate. shape 1: the T10-shaped L2 above, uneven
  // classes and heavy pruning.
  std::vector<Itemset> l2;
  const u32 items = static_cast<u32>(state.range(0));
  if (state.range(1) == 0) {
    for (u32 a = 0; a < items; ++a) {
      for (u32 b = a + 1; b < items; ++b) l2.push_back({a, b});
    }
  } else {
    l2 = t10_shaped_l2(items);
  }
  for (auto _ : state) {
    auto c3 = fim::apriori_gen(l2, 3);
    benchmark::DoNotOptimize(c3.size());
  }
  state.SetItemsProcessed(state.iterations() * l2.size());
}
BENCHMARK(BM_AprioriGen)
    ->ArgNames({"items", "shape"})
    ->Args({16, 0})
    ->Args({48, 0})
    ->Args({96, 0})
    ->Args({870, 1});

void BM_ContainsAll(benchmark::State& state) {
  Rng rng(3);
  Transaction t;
  for (u32 i = 0; i < 1000; i += 1 + rng.below(3)) t.push_back(i);
  Itemset s{t[2], t[t.size() / 2], t[t.size() - 1]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fim::contains_all(t, s));
  }
}
BENCHMARK(BM_ContainsAll);

void BM_ItemsetHash(benchmark::State& state) {
  const fim::ItemsetHash h;
  const Itemset s{4, 17, 99, 230, 771};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(s));
  }
}
BENCHMARK(BM_ItemsetHash);

void BM_ReduceByKey(benchmark::State& state) {
  engine::Context::Options opts{.cluster = sim::ClusterConfig::with_nodes(2)};
  opts.fault = engine::FaultProfile{};  // stable numbers even under env
  engine::Context ctx(opts);
  Rng rng(5);
  std::vector<std::pair<u32, u64>> pairs;
  const u64 n = state.range(0);
  pairs.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<u32>(rng.below(n / 16 + 1)), 1);
  }
  auto rdd = ctx.parallelize(std::move(pairs), 16);
  rdd.persist();
  (void)rdd.count();
  for (auto _ : state) {
    auto reduced = rdd.reduce_by_key([](u64 a, u64 b) { return a + b; });
    benchmark::DoNotOptimize(reduced.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceByKey)->Arg(10000)->Arg(100000);

/// Counting-shaped shuffle: millions of input pairs collapsing onto a few
/// distinct keys. Before the reservation cap, every map task reserved one
/// hash slot per *input pair* (a ~48 MB table for 2^22 pairs over 16
/// tasks); with the cap the combine table stays sized to the distinct-key
/// count. The win shows up as bytes-allocated and wall-clock per
/// iteration.
void BM_ReduceByKeyFewKeys(benchmark::State& state) {
  engine::Context::Options opts{.cluster = sim::ClusterConfig::with_nodes(2)};
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  Rng rng(6);
  std::vector<std::pair<u32, u64>> pairs;
  const u64 n = state.range(0);
  pairs.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<u32>(rng.below(64)), 1);
  }
  auto rdd = ctx.parallelize(std::move(pairs), 16);
  rdd.persist();
  (void)rdd.count();
  for (auto _ : state) {
    auto reduced = rdd.reduce_by_key([](u64 a, u64 b) { return a + b; });
    benchmark::DoNotOptimize(reduced.count());
    ctx.report().clear();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceByKeyFewKeys)->Arg(1 << 20)->Arg(1 << 22);

/// The dense counting merge the candidate-id path uses instead of the
/// keyed shuffle above: same logical aggregation, element-wise over
/// fixed-width arrays. Args: the width, and the per-mille of cells each
/// partition hits: all of them, and T10I4D100K @0.05%'s measured pass-2
/// and pass-3 fills (15.8% and 4.5%, which ship sparse), so the host cost
/// of the fold's fused nonzero count shows at each fill. On this cluster
/// the 100,000-cell merges end on the reducers and the narrower ones on
/// the driver: 1,716 cells is Chess @80%'s pass 6, which folds there.
void BM_SumArrays(benchmark::State& state) {
  engine::Context::Options opts{.cluster = sim::ClusterConfig::with_nodes(2)};
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  const size_t width = static_cast<size_t>(state.range(0));
  const double fill = static_cast<double>(state.range(1)) / 1000.0;
  Rng rng(7);
  std::vector<std::vector<u64>> arrays(16, std::vector<u64>(width, 0));
  for (std::vector<u64>& a : arrays) {
    for (u64& cell : a) cell = rng.bernoulli(fill) ? 1 : 0;
  }
  auto rdd = ctx.parallelize(std::move(arrays), 16);
  rdd.persist();
  (void)rdd.count();
  for (auto _ : state) {
    auto merged = rdd.sum_arrays(width);
    benchmark::DoNotOptimize(merged.data());
    ctx.report().clear();
  }
  state.SetItemsProcessed(state.iterations() * width * 16);
}
BENCHMARK(BM_SumArrays)
    ->Args({1716, 1000})
    ->Args({10000, 1000})
    ->Args({100000, 1000})
    ->Args({100000, 158})
    ->Args({100000, 45});

/// Stage-launch machinery overhead: arg 0 = injection disabled (must stay
/// on the near-zero-cost fast path), arg 1 = failures + stragglers injected
/// (retry loop, speculation pass, deterministic draws).
void BM_StageFaultPath(benchmark::State& state) {
  engine::Context::Options opts{.cluster = sim::ClusterConfig::with_nodes(2)};
  opts.fault = engine::FaultProfile{};
  if (state.range(0)) {
    opts.fault.seed = 99;
    opts.fault.task_failure_p = 0.05;
    opts.fault.straggler_p = 0.05;
  }
  engine::Context ctx(opts);
  for (auto _ : state) {
    ctx.run_stage("bench", 32, [](u32) { engine::work::add(100); });
    ctx.report().clear();  // keep the record list from growing unboundedly
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_StageFaultPath)->Arg(0)->Arg(1);

void BM_DatasetSerialize(benchmark::State& state) {
  const auto db = quest_db(5000);
  for (auto _ : state) {
    auto bytes = db.serialize();
    benchmark::DoNotOptimize(bytes.size());
  }
}
BENCHMARK(BM_DatasetSerialize);

void BM_DatasetDeserialize(benchmark::State& state) {
  const auto bytes = quest_db(5000).serialize();
  for (auto _ : state) {
    auto db = fim::TransactionDB::deserialize(bytes);
    benchmark::DoNotOptimize(db.size());
  }
}
BENCHMARK(BM_DatasetDeserialize);

void BM_QuestGenerate(benchmark::State& state) {
  for (auto _ : state) {
    auto db = quest_db(static_cast<u64>(state.range(0)));
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuestGenerate)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  yafim::set_log_level(yafim::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
