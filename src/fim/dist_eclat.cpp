#include "fim/dist_eclat.h"

#include <algorithm>
#include <map>
#include <memory>

#include "engine/broadcast.h"
#include "engine/rdd.h"
#include "fim/tidlist_mining.h"

namespace yafim::fim {

namespace {

using CountPair = std::pair<Itemset, u64>;

/// Vertical database over the frequent items, broadcast to workers.
struct VerticalDb {
  /// Parallel arrays, ordered by ascending item id.
  std::vector<Item> items;
  std::vector<TidList> tids;

  /// Index of `item` in the arrays, or npos.
  size_t index_of(Item item) const {
    auto it = std::lower_bound(items.begin(), items.end(), item);
    if (it == items.end() || *it != item) return npos;
    return static_cast<size_t>(it - items.begin());
  }

  u64 byte_size() const {
    u64 total = 16;
    for (const TidList& t : tids) total += 8 + t.size() * sizeof(u32) + 4;
    return total;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);
};

}  // namespace

DistEclatRun dist_eclat_mine(engine::Context& ctx, simfs::SimFS& fs,
                             const std::string& input_path,
                             const DistEclatOptions& options) {
  YAFIM_CHECK(options.prefix_depth >= 1, "prefix_depth must be >= 1");
  const size_t first_stage = ctx.report().stages().size();
  DistEclatRun result;
  MiningRun& run = result.run;

  // ---- Load (same stage structure as YAFIM's phase 0) ------------------
  ctx.set_pass(0);
  TransactionDB db;
  u64 input_bytes = 0;  // all the mine keeps of the input's bytes
  {
    const std::vector<u8> raw = fs.read(input_path);
    db = TransactionDB::deserialize(raw);
    input_bytes = raw.size();
  }
  const u64 num_transactions = db.size();
  const u64 min_count = num_transactions == 0
                            ? 1
                            : db.min_support_count(options.min_support);
  run.itemsets = FrequentItemsets(min_count, num_transactions);
  {
    const u32 tasks =
        options.partitions ? options.partitions : ctx.default_partitions();
    sim::StageRecord load;
    load.label = "disteclat:load+parse";
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

  // ---- Pass 1: frequent items + vertical database ----------------------
  ctx.set_pass(1);
  auto item_tid_pairs =
      transactions.zip_with_index("disteclat:tids")
          .flat_map([](const std::pair<Transaction, u64>& indexed) {
            std::vector<std::pair<Item, u32>> out;
            out.reserve(indexed.first.size());
            for (Item item : indexed.first) {
              out.emplace_back(item, static_cast<u32>(indexed.second));
            }
            return out;
          });
  auto grouped = item_tid_pairs.group_by_key(0, std::hash<Item>{},
                                             "disteclat:vertical");
  auto collected = grouped.collect("disteclat:vertical:collect");

  VerticalDb vertical;
  {
    // Deterministic order + the frequency threshold.
    std::map<Item, TidList> by_item;
    for (auto& [item, tids] : collected) {
      if (tids.size() < min_count) continue;
      std::sort(tids.begin(), tids.end());
      by_item.emplace(item, std::move(tids));
    }
    for (auto& [item, tids] : by_item) {
      run.itemsets.add(Itemset{item}, tids.size());
      vertical.items.push_back(item);
      vertical.tids.push_back(std::move(tids));
    }
  }
  run.passes.push_back(PassStats{1, collected.size(),
                                 vertical.items.size(), 0.0});

  // ---- Pass 2: grow seed prefixes of length prefix_depth (driver) ------
  // Each seed is an Eclat equivalence class: a frequent prefix plus the
  // tidlists of its frequent one-item extensions. Growing to depth d emits
  // every frequent itemset of size <= d along the way, so the workers only
  // need to mine sizes > d.
  ctx.set_pass(2);
  std::vector<std::pair<Itemset, std::vector<std::pair<Item, TidList>>>>
      seeds;
  {
    engine::work::Scope driver_scope;
    struct Frame {
      Itemset prefix;
      std::vector<std::pair<Item, TidList>> extensions;
    };
    std::vector<Frame> frontier;
    {
      Frame root;  // the empty prefix; extensions are the frequent items
      for (size_t i = 0; i < vertical.items.size(); ++i) {
        root.extensions.emplace_back(vertical.items[i], vertical.tids[i]);
      }
      frontier.push_back(std::move(root));
    }
    for (u32 depth = 0; depth < options.prefix_depth; ++depth) {
      std::vector<Frame> next;
      for (Frame& frame : frontier) {
        for (size_t i = 0; i < frame.extensions.size(); ++i) {
          Frame child;
          child.prefix = frame.prefix;
          child.prefix.push_back(frame.extensions[i].first);
          // The child's support is its tidlist length; sizes >= 2 are new
          // (size 1 was added from the vertical DB already).
          if (child.prefix.size() >= 2) {
            run.itemsets.add(child.prefix, frame.extensions[i].second.size());
          }
          for (size_t j = i + 1; j < frame.extensions.size(); ++j) {
            TidList tids = intersect_tidlists(frame.extensions[i].second,
                                             frame.extensions[j].second);
            if (tids.size() >= min_count) {
              child.extensions.emplace_back(frame.extensions[j].first,
                                            std::move(tids));
            }
          }
          next.push_back(std::move(child));
        }
      }
      frontier = std::move(next);
    }
    for (Frame& frame : frontier) {
      if (frame.extensions.empty()) continue;  // nothing left to mine
      seeds.emplace_back(std::move(frame.prefix),
                         std::move(frame.extensions));
    }

    sim::StageRecord gen;
    gen.label = "disteclat:seed-mining";
    gen.kind = sim::StageKind::kOverhead;
    gen.pass = 2;
    gen.driver_work = driver_scope.measured();
    ctx.record(std::move(gen));
  }
  result.seed_prefixes = seeds.size();
  run.passes.push_back(PassStats{2, seeds.size(), seeds.size(), 0.0});

  // ---- Pass 3: independent subtree mining on the workers ---------------
  ctx.set_pass(3);
  result.vertical_bytes = vertical.byte_size();
  // Each seed carries its own extension tidlists (the sub-database its
  // subtree needs); the shared broadcast covers lineage-recovery re-reads.
  auto seeds_rdd = ctx.parallelize(std::move(seeds));
  auto broadcast_min = ctx.broadcast(min_count, result.vertical_bytes);
  auto mined =
      seeds_rdd
          .flat_map([broadcast_min](
                        const std::pair<Itemset,
                                        std::vector<std::pair<Item, TidList>>>&
                            seed) {
            std::vector<CountPair> out;
            auto extensions = seed.second;  // mutable working copy
            mine_tidlist_class(seed.first, extensions, *broadcast_min, out);
            return out;
          })
          .collect("disteclat:subtrees:collect");
  u64 deep = 0;
  for (auto& [itemset, support] : mined) {
    run.itemsets.add(std::move(itemset), support);
    ++deep;
  }
  run.passes.push_back(PassStats{3, deep, deep, 0.0});

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return result;
}

DistEclatRun dist_eclat_mine(engine::Context& ctx, simfs::SimFS& fs,
                             const TransactionDB& db,
                             const DistEclatOptions& options) {
  const std::string path = "hdfs://staging/disteclat-input";
  fs.write(path, db.serialize());
  return dist_eclat_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
