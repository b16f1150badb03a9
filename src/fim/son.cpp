#include "fim/son.h"

#include "fim/apriori_seq.h"
#include "fim/count_core.h"
#include "fim/mr_encode.h"

namespace yafim::fim {

SonRun son_mine(engine::Context& ctx, simfs::SimFS& fs,
                const std::string& input_path, const SonOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  mr::JobRunner runner(ctx, fs);
  SonRun son;
  MiningRun& run = son.run;

  const u64 num_transactions =
      TransactionDB::deserialize(fs.read(input_path)).size();
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return son;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  // ---- Job 1: local Apriori per split, emit locally frequent itemsets --
  ctx.set_pass(1);
  ItemsetCountJob local;
  local.name = "son:local-mining";
  local.decode_input = decode_transactions;
  const double min_support = options.min_support;
  local.map_partition_fn = [min_support](std::span<const Transaction> split,
                                         mr::Emitter<Itemset, u64>& emit) {
    if (split.empty()) return;
    TransactionDB chunk(
        std::vector<Transaction>(split.begin(), split.end()));
    AprioriOptions opt;
    opt.min_support = min_support;
    // Local threshold rounding pinned to *ceil*: the SON completeness
    // argument is sum_i (ceil(s * n_i) - 1) < s * N, so ceil keeps every
    // globally frequent itemset locally frequent somewhere while admitting
    // the fewest false candidates. A floor here would not break
    // completeness but silently inflates false_candidates on small or
    // uneven splits (regression-tested in test_related_work.cpp).
    opt.min_count = min_count_ceil(min_support, split.size());
    const MiningRun local_run = apriori_mine(chunk, opt);
    for (auto& [itemset, support] : local_run.itemsets.sorted()) {
      emit.emit(itemset, 1);
    }
  };
  // Reducer deduplicates: value = number of splits where locally frequent.
  local.reduce_fn = [](const Itemset& key, std::vector<u64>& values)
      -> std::optional<CountPair> {
    return CountPair(key, values.size());
  };
  local.encode_output = encode_counts;
  local.num_mappers = options.num_mappers;
  local.num_reducers = options.num_reducers;
  auto candidates_result =
      runner.run(local, input_path, options.work_dir + "/candidates");
  son.candidate_union = candidates_result.output.size();
  run.passes.push_back(PassStats{1, son.candidate_union, 0, 0.0});

  // Driver reads the candidate union back and builds per-size hash trees.
  {
    sim::StageRecord read_back;
    read_back.label = "son:driver read candidates";
    read_back.kind = sim::StageKind::kOverhead;
    read_back.pass = 2;
    read_back.dfs_read_bytes = candidates_result.output_bytes;
    ctx.record(std::move(read_back));
  }
  ctx.set_pass(2);
  engine::work::Scope driver_scope;
  std::vector<ItemsetRows> by_size;
  for (const auto& [itemset, unused] : candidates_result.output) {
    const size_t k = itemset.size();
    if (by_size.size() < k) by_size.resize(k);
    by_size[k - 1].width = static_cast<u32>(k);
    by_size[k - 1].items.insert(by_size[k - 1].items.end(), itemset.begin(),
                                itemset.end());
  }
  auto trees = std::make_shared<std::vector<HashTree>>();
  for (ItemsetRows& level : by_size) {
    if (!level.empty()) trees->emplace_back(std::move(level), 0, 16);
  }
  {
    sim::StageRecord gen;
    gen.label = "son:build hash trees";
    gen.kind = sim::StageKind::kOverhead;
    gen.pass = 2;
    gen.driver_work = driver_scope.measured();
    ctx.record(std::move(gen));
  }

  // ---- Job 2: exact global counting of the candidate union -------------
  auto counted = runner.run(
      itemset_count_job("son:global-count", std::move(trees), min_count,
                        options.num_mappers, options.num_reducers),
      input_path, options.work_dir + "/L");
  for (const auto& [itemset, support] : counted.output) {
    run.itemsets.add(itemset, support);
  }
  son.false_candidates = son.candidate_union - counted.output.size();
  run.passes.push_back(
      PassStats{2, son.candidate_union, counted.output.size(), 0.0});
  // Backfill job 1's "frequent" with the exact total for reporting.
  run.passes[0].frequent = counted.output.size();

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return son;
}

SonRun son_mine(engine::Context& ctx, simfs::SimFS& fs,
                const TransactionDB& db, const SonOptions& options) {
  const std::string path = "hdfs://staging/son-input";
  fs.write(path, db.serialize());
  return son_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
