#include "fim/big_fim.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "fim/hash_tree.h"
#include "fim/mr_apriori.h"
#include "fim/mr_encode.h"
#include "fim/tidlist_mining.h"
#include "mapreduce/job.h"

namespace yafim::fim {

namespace {

using CountPair = std::pair<Itemset, u64>;
/// Phase-2 intermediate value: one extension item's local tidlist.
using ExtTids = std::pair<Item, TidList>;
/// Phase-2 input record: (global tid, transaction).
using IndexedTx = std::pair<u64, Transaction>;
/// Phase-2 output record: the frequent itemsets of one prefix's subtree.
using Subtree = std::vector<CountPair>;

}  // namespace

BigFimRun big_fim_mine(engine::Context& ctx, simfs::SimFS& fs,
                       const std::string& input_path,
                       const BigFimOptions& options) {
  YAFIM_CHECK(options.switch_level >= 1, "switch_level must be >= 1");
  const size_t first_stage = ctx.report().stages().size();
  BigFimRun big;
  MiningRun& run = big.run;

  // ---- Phase 1: breadth-first Apriori jobs up to switch_level ----------
  MrAprioriOptions phase1;
  phase1.min_support = options.min_support;
  phase1.num_mappers = options.num_mappers;
  phase1.num_reducers = options.num_reducers;
  phase1.work_dir = options.work_dir + "/phase1";
  phase1.max_levels = options.switch_level;
  MiningRun apriori_run = mr_apriori_mine(ctx, fs, input_path, phase1);
  run.itemsets = FrequentItemsets(apriori_run.itemsets.min_support_count(),
                                  apriori_run.itemsets.num_transactions());
  for (const auto& [itemset, support] : apriori_run.itemsets.sorted()) {
    run.itemsets.add(itemset, support);
  }
  run.passes = apriori_run.passes;
  const u64 min_count = run.itemsets.min_support_count();

  // Prefixes for the depth-first phase; frequent items bound extensions.
  std::vector<Itemset> prefixes;
  for (const auto& [itemset, support] : run.itemsets.level(
           options.switch_level)) {
    (void)support;
    prefixes.push_back(itemset);
  }
  big.prefixes = prefixes.size();
  if (prefixes.empty()) {
    ctx.set_pass(0);
    price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
    return big;  // the lattice ended before the switch
  }
  auto frequent_items = std::make_shared<std::unordered_set<Item>>();
  for (const auto& [itemset, support] : run.itemsets.level(1)) {
    (void)support;
    frequent_items->insert(itemset[0]);
  }

  // ---- Phase 2: one job -- build per-prefix extension tidlists in the
  // mappers, merge and mine each prefix's subtree in the reducers. -------
  const u32 phase2_pass = options.switch_level + 1;
  ctx.set_pass(phase2_pass);
  engine::work::Scope driver_scope;
  auto prefix_tree = std::make_shared<const HashTree>(
      to_rows(prefixes), /*branching=*/0, /*leaf_capacity=*/16);
  {
    sim::StageRecord gen;
    gen.label = "bigfim:build prefix tree";
    gen.kind = sim::StageKind::kOverhead;
    gen.pass = phase2_pass;
    gen.driver_work = driver_scope.measured();
    ctx.record(std::move(gen));
  }

  mr::JobSpec<IndexedTx, Itemset, ExtTids, Subtree, ItemsetHash> job;
  job.name = "bigfim:phase2";
  job.decode_input = [](const std::vector<u8>& bytes) {
    std::vector<Transaction> tx = TransactionDB::deserialize(bytes).release();
    std::vector<IndexedTx> indexed;
    indexed.reserve(tx.size());
    for (u64 tid = 0; tid < tx.size(); ++tid) {
      indexed.emplace_back(tid, std::move(tx[tid]));
    }
    return indexed;
  };
  job.map_partition_fn = [prefix_tree, frequent_items](
                             std::span<const IndexedTx> split,
                             mr::Emitter<Itemset, ExtTids>& emit) {
    // local[prefix id][extension item] -> tids within this split.
    std::map<u32, std::map<Item, TidList>> local;
    HashTree::Probe probe;
    for (const auto& [tid, t] : split) {
      prefix_tree->for_each_contained(t, probe, [&](u32 ci) {
        const Itemset& prefix = prefix_tree->rows().itemset(ci);
        auto from = std::upper_bound(t.begin(), t.end(), prefix.back());
        for (auto it = from; it != t.end(); ++it) {
          engine::work::add(1);
          if (!frequent_items->count(*it)) continue;
          local[ci][*it].push_back(static_cast<u32>(tid));
        }
      });
    }
    for (auto& [ci, extensions] : local) {
      for (auto& [item, tids] : extensions) {
        emit.emit(prefix_tree->rows().itemset(ci),
                  ExtTids(item, std::move(tids)));
      }
    }
  };
  job.reduce_fn = [min_count](const Itemset& prefix,
                              std::vector<ExtTids>& values)
      -> std::optional<Subtree> {
    // Merge each extension item's tidlist shards (shards are disjoint but
    // arrive in arbitrary mapper order).
    std::map<Item, TidList> merged;
    for (auto& [item, tids] : values) {
      TidList& into = merged[item];
      into.insert(into.end(), tids.begin(), tids.end());
    }
    std::vector<std::pair<Item, TidList>> extensions;
    for (auto& [item, tids] : merged) {
      engine::work::add(tids.size());
      std::sort(tids.begin(), tids.end());
      if (tids.size() >= min_count) {
        extensions.emplace_back(item, std::move(tids));
      }
    }
    if (extensions.empty()) return std::nullopt;
    Subtree out;
    mine_tidlist_class(prefix, extensions, min_count, out);
    if (out.empty()) return std::nullopt;
    return out;
  };
  job.encode_output = [](const std::vector<Subtree>& subtrees) {
    std::vector<CountPair> flat;
    for (const Subtree& s : subtrees) {
      flat.insert(flat.end(), s.begin(), s.end());
    }
    return encode_counts(flat);
  };
  job.num_mappers = options.num_mappers;
  job.num_reducers = options.num_reducers;
  job.distributed_cache_bytes =
      prefix_tree->serialized_bytes() + 8 * frequent_items->size();

  mr::JobRunner runner(ctx, fs);
  auto result = runner.run(job, input_path, options.work_dir + "/deep");
  big.tidlist_shuffle_bytes = result.shuffle_bytes;

  u64 deep = 0;
  for (const Subtree& subtree : result.output) {
    for (const auto& [itemset, support] : subtree) {
      run.itemsets.add(itemset, support);
      ++deep;
    }
  }
  run.passes.push_back(PassStats{phase2_pass, big.prefixes, deep, 0.0});

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return big;
}

BigFimRun big_fim_mine(engine::Context& ctx, simfs::SimFS& fs,
                       const TransactionDB& db, const BigFimOptions& options) {
  const std::string path = "hdfs://staging/bigfim-input";
  fs.write(path, db.serialize());
  return big_fim_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
