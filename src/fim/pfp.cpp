#include "fim/pfp.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "engine/accumulator.h"
#include "engine/broadcast.h"
#include "engine/rdd.h"
#include "fim/fp_tree.h"

namespace yafim::fim {

namespace {

using CountPair = std::pair<Itemset, u64>;

/// Shared rank table shipped to the workers.
struct RankTable {
  std::unordered_map<Item, u32> item_to_rank;
  std::vector<Item> rank_to_item;
  u32 groups = 1;

  u32 group_of(u32 rank) const { return rank % groups; }
  u64 byte_size() const { return 16 + 12ull * rank_to_item.size(); }
};

}  // namespace

PfpRun pfp_mine(engine::Context& ctx, simfs::SimFS& fs,
                const std::string& input_path, const PfpOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  PfpRun result;
  MiningRun& run = result.run;
  result.groups =
      options.num_groups ? options.num_groups : ctx.cluster().total_cores();

  // ---- Load -------------------------------------------------------------
  ctx.set_pass(0);
  TransactionDB db;
  u64 input_bytes = 0;  // all the mine keeps of the input's bytes
  {
    const std::vector<u8> raw = fs.read(input_path);
    db = TransactionDB::deserialize(raw);
    input_bytes = raw.size();
  }
  const u64 num_transactions = db.size();
  const u64 min_count =
      num_transactions == 0 ? 1 : db.min_support_count(options.min_support);
  run.itemsets = FrequentItemsets(min_count, num_transactions);
  {
    const u32 tasks =
        options.partitions ? options.partitions : ctx.default_partitions();
    sim::StageRecord load;
    load.label = "pfp:load+parse";
    load.kind = sim::StageKind::kSparkStage;
    load.pass = 0;
    load.dfs_read_bytes = input_bytes;
    load.tasks = sim::split_work(
        num_transactions * (1 + ctx.cluster().record_parse_work), tasks);
    ctx.record(std::move(load));
  }
  if (num_transactions == 0) return result;

  auto transactions =
      ctx.parallelize(db.release(), options.partitions)
          .map([](const Transaction& t) { return t; });
  transactions.persist();

  // ---- Pass 1: item frequencies -> rank table ---------------------------
  ctx.set_pass(1);
  auto counts =
      transactions
          .flat_map([](const Transaction& t) { return t; })
          .map([](const Item& i) { return std::pair<Item, u64>(i, 1); })
          .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                         std::hash<Item>{}, "pfp:count-items")
          .collect("pfp:count-items:collect");

  std::vector<std::pair<Item, u64>> frequent;
  for (const auto& [item, count] : counts) {
    if (count >= min_count) frequent.push_back({item, count});
  }
  std::sort(frequent.begin(), frequent.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  RankTable table;
  table.groups = std::max<u32>(1, result.groups);
  table.rank_to_item.resize(frequent.size());
  for (u32 r = 0; r < frequent.size(); ++r) {
    table.item_to_rank.emplace(frequent[r].first, r);
    table.rank_to_item[r] = frequent[r].first;
    run.itemsets.add(Itemset{frequent[r].first}, frequent[r].second);
  }
  run.passes.push_back(PassStats{1, counts.size(), frequent.size(), 0.0});
  if (frequent.empty()) {
    ctx.set_pass(0);
    price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
    return result;
  }

  // ---- Pass 2: group-dependent transactions + per-group mining ----------
  ctx.set_pass(2);
  const u64 table_bytes = table.byte_size();
  auto shared_table = ctx.broadcast(std::move(table), table_bytes);
  engine::Accumulator conditional_count;

  auto group_mined =
      transactions
          // detsan: tolerate-accumulator -- commutative metric adds only;
          // the accumulator never feeds the emitted prefixes.
          .flat_map([shared_table,
                     &conditional_count](const Transaction& t) {
            // Transaction as ascending ranks (most frequent first).
            std::vector<u32> ranks;
            ranks.reserve(t.size());
            for (Item i : t) {
              auto it = shared_table->item_to_rank.find(i);
              if (it != shared_table->item_to_rank.end()) {
                ranks.push_back(it->second);
              }
            }
            std::sort(ranks.begin(), ranks.end());
            // One prefix per distinct group, cut at the group's last rank.
            std::vector<std::pair<u32, std::vector<u32>>> out;
            std::vector<bool> seen(shared_table->groups, false);
            for (size_t j = ranks.size(); j-- > 0;) {
              const u32 g = shared_table->group_of(ranks[j]);
              if (seen[g]) continue;
              seen[g] = true;
              out.emplace_back(
                  g, std::vector<u32>(ranks.begin(), ranks.begin() + j + 1));
            }
            conditional_count.add(out.size());
            return out;
          })
          .group_by_key(result.groups, std::hash<u32>{}, "pfp:group-shuffle")
          .flat_map([shared_table, min_count](
                        const std::pair<u32, std::vector<std::vector<u32>>>&
                            group) {
            FpTree tree(
                static_cast<u32>(shared_table->rank_to_item.size()));
            for (const std::vector<u32>& conditional : group.second) {
              tree.insert(conditional, 1);
            }
            const u32 g = group.first;
            std::vector<CountPair> found;
            mine_fp_tree(
                tree, min_count, shared_table->rank_to_item,
                [shared_table, g](u32 rank) {
                  return shared_table->group_of(rank) == g;
                },
                [&found](const Itemset& itemset, u64 support) {
                  found.emplace_back(itemset, support);
                });
            return found;
          });

  for (auto& [itemset, support] : group_mined.collect("pfp:mine:collect")) {
    // Groups also re-derive their singletons; supports agree with pass 1.
    run.itemsets.add(std::move(itemset), support);
  }
  result.conditional_transactions = conditional_count.value();
  run.passes.push_back(
      PassStats{2, result.conditional_transactions,
                run.itemsets.total() - frequent.size(), 0.0});

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return result;
}

PfpRun pfp_mine(engine::Context& ctx, simfs::SimFS& fs,
                const TransactionDB& db, const PfpOptions& options) {
  const std::string path = "hdfs://staging/pfp-input";
  fs.write(path, db.serialize());
  return pfp_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
