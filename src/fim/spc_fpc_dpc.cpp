#include "fim/spc_fpc_dpc.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fim/candidate_gen.h"
#include "fim/hash_tree.h"
#include "fim/mr_encode.h"
#include "mapreduce/job.h"

namespace yafim::fim {

namespace {

using CountPair = std::pair<Itemset, u64>;
using Spec = mr::JobSpec<Transaction, Itemset, u64, CountPair, ItemsetHash>;

std::vector<Transaction> decode_transactions(const std::vector<u8>& bytes) {
  return TransactionDB::deserialize(bytes).release();
}

}  // namespace

LinRun lin_mine(engine::Context& ctx, simfs::SimFS& fs,
                const std::string& input_path, const LinOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  mr::JobRunner runner(ctx, fs);
  LinRun lin;
  MiningRun& run = lin.run;

  const u64 num_transactions =
      TransactionDB::deserialize(fs.read(input_path)).size();
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return lin;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  auto reduce_fn = [min_count](const Itemset& key, std::vector<u64>& values)
      -> std::optional<CountPair> {
    u64 sum = 0;
    for (u64 v : values) sum += v;
    if (sum < min_count) return std::nullopt;
    return CountPair(key, sum);
  };
  auto combine_fn = [](const u64& a, const u64& b) { return a + b; };

  // ---- Job 1: frequent items (identical in all three strategies) ------
  ctx.set_pass(1);
  Spec job1;
  job1.name = "lin:job1";
  job1.decode_input = decode_transactions;
  job1.map_fn = [](const Transaction& t, mr::Emitter<Itemset, u64>& emit) {
    for (Item i : t) emit.emit(Itemset{i}, 1);
  };
  job1.combine_fn = combine_fn;
  job1.reduce_fn = reduce_fn;
  job1.encode_output = encode_counts;
  job1.num_mappers = options.num_mappers;
  job1.num_reducers = options.num_reducers;
  auto result = runner.run(job1, input_path, options.work_dir + "/L1");
  lin.num_jobs = 1;

  std::vector<Itemset> frequent;
  for (const auto& [itemset, support] : result.output) {
    run.itemsets.add(itemset, support);
    frequent.push_back(itemset);
  }
  run.passes.push_back(
      PassStats{1, result.output.size(), result.output.size(), 0.0});

  /// How many levels the next job may batch, given the first level of the
  /// batch and the strategy.
  auto batch_limit = [&options](u32 first_level) -> u32 {
    switch (options.strategy) {
      case CombineStrategy::kSinglePass:
        return 1;
      case CombineStrategy::kFixedPasses:
        // Lin et al. run levels 2 (and 3) alone -- candidate counts peak
        // there -- and combine afterwards.
        return first_level <= 3 ? 1 : options.fixed_passes;
      case CombineStrategy::kDynamic:
        return 0xffffffffu;  // bounded by the candidate budget below
    }
    return 1;
  };

  // ---- Combined counting jobs -----------------------------------------
  for (u32 k = 2; !frequent.empty();) {
    // Build the batch of candidate levels [k, k + batch).
    std::vector<ItemsetRows> batch_candidates;
    u64 total_candidates = 0;
    const u32 limit = batch_limit(k);
    const ItemsetRows frequent_rows = to_sorted_rows(frequent);
    for (u32 level = k; level - k < limit; ++level) {
      // The first level generates from the verified frequent sets, each
      // later level from the candidates just generated.
      const ItemsetRows& base =
          batch_candidates.empty() ? frequent_rows : batch_candidates.back();
      // Pre-generation guard: joining a large *unverified* level is a
      // combinatorial explosion (e.g. C2 = all pairs of L1 would join to
      // nearly C(|L1|, 3) triples). Generate speculative levels only from
      // bases already within budget.
      if (options.strategy == CombineStrategy::kDynamic &&
          !batch_candidates.empty() &&
          base.size() > options.dynamic_candidate_budget) {
        break;
      }
      ItemsetRows candidates = apriori_gen_rows(base, level);
      if (candidates.empty()) break;
      if (options.strategy == CombineStrategy::kDynamic &&
          !batch_candidates.empty() &&
          total_candidates + candidates.size() >
              options.dynamic_candidate_budget) {
        break;
      }
      total_candidates += candidates.size();
      batch_candidates.push_back(std::move(candidates));
    }
    if (batch_candidates.empty()) break;
    const u32 levels_in_batch = static_cast<u32>(batch_candidates.size());

    ctx.set_pass(k);
    engine::work::Scope driver_scope;
    auto trees = std::make_shared<std::vector<HashTree>>();
    u64 cache_bytes = 0;
    for (auto& candidates : batch_candidates) {
      trees->emplace_back(std::move(candidates), options.branching,
                          options.leaf_capacity);
      cache_bytes += trees->back().serialized_bytes();
    }
    {
      sim::StageRecord gen;
      gen.label = "lin:ap_gen batch@" + std::to_string(k);
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }

    Spec job;
    job.name = "lin:job@" + std::to_string(k);
    job.decode_input = decode_transactions;
    job.map_fn = [trees](const Transaction& t,
                         mr::Emitter<Itemset, u64>& emit) {
      static thread_local HashTree::Probe probe;
      for (const HashTree& tree : *trees) {
        tree.for_each_contained(t, probe, [&](u32 ci) {
          emit.emit(tree.candidate(ci), 1);
        });
      }
    };
    job.combine_fn = combine_fn;
    job.reduce_fn = reduce_fn;
    job.encode_output = encode_counts;
    job.num_mappers = options.num_mappers;
    job.num_reducers = options.num_reducers;
    job.distributed_cache_bytes = cache_bytes;

    result = runner.run(job, input_path,
                        options.work_dir + "/L" + std::to_string(k) + "-" +
                            std::to_string(k + levels_in_batch - 1));
    ++lin.num_jobs;

    // Split the mixed-size output back into levels.
    std::vector<std::vector<CountPair>> by_level(levels_in_batch);
    for (auto& [itemset, support] : result.output) {
      const u32 level = static_cast<u32>(itemset.size());
      YAFIM_CHECK(level >= k && level < k + levels_in_batch,
                  "reducer emitted an unexpected level");
      by_level[level - k].emplace_back(std::move(itemset), support);
    }
    for (u32 j = 0; j < levels_in_batch; ++j) {
      for (const auto& [itemset, support] : by_level[j]) {
        run.itemsets.add(itemset, support);
      }
      run.passes.push_back(PassStats{k + j,
                                     (*trees)[j].size(),
                                     by_level[j].size(), 0.0});
      if (j > 0) {
        // Levels beyond the first were generated from unverified
        // candidates; count the overshoot.
        lin.speculative_candidates +=
            (*trees)[j].size() - by_level[j].size();
      }
    }

    frequent.clear();
    for (const auto& [itemset, support] : by_level[levels_in_batch - 1]) {
      frequent.push_back(itemset);
    }
    k += levels_in_batch;
  }

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return lin;
}

LinRun lin_mine(engine::Context& ctx, simfs::SimFS& fs,
                const TransactionDB& db, const LinOptions& options) {
  const std::string path = "hdfs://staging/lin-input";
  fs.write(path, db.serialize());
  return lin_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
