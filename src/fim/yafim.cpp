#include "fim/yafim.h"

#include <span>
#include <string>

#include "engine/rdd.h"
#include "fim/count_core.h"
#include "fim/levelwise.h"
#include "obs/trace.h"
#include "util/checksum.h"

namespace yafim::fim {

MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const std::string& input_path,
                     const YafimOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  // Shuffle stages spill to the same filesystem the dataset lives on when
  // their buffers exceed the shuffle-buffer budget (engine/rdd.h).
  ctx.set_spill_fs(&fs);

  obs::Span mine_span("yafim", "yafim:mine");

  // ---- Phase 0: load the dataset from HDFS into a cached RDD ----------
  ctx.set_pass(0);
  obs::Span load_span("yafim", "yafim:load");
  // Once parsed, the input is priced by its size and fingerprinted by its
  // hash; the mine does not hold its bytes.
  TransactionDB db;
  u64 input_bytes = 0;
  u64 input_hash = 0;
  {
    const std::vector<u8> raw = fs.read(input_path);
    db = TransactionDB::deserialize(raw);
    input_bytes = raw.size();
    if (options.checkpoint) input_hash = xxh64(raw.data(), raw.size());
  }
  const u32 load_tasks =
      options.partitions ? options.partitions : ctx.default_partitions();
  // Parsing records through the input format costs record_parse_work per
  // record; Spark pays it exactly once here (the cached RDD keeps the
  // deserialized objects), vs once per job on the MapReduce substrate.
  // Without caching, every pass that reads the transactions records this
  // stage again as its lineage recompute (count_batch).
  sim::StageRecord load;
  load.label = "load:textFile+parse";
  load.kind = sim::StageKind::kSparkStage;
  load.pass = ctx.pass();
  load.tasks = sim::split_work(
      db.size() * (1 + ctx.cluster().record_parse_work), load_tasks);
  load.dfs_read_bytes = input_bytes;
  ctx.record(load);

  const u64 num_transactions = db.size();
  const u64 min_count = db.min_support_count(options.min_support);
  MiningRun run;
  run.itemsets = FrequentItemsets(min_count, num_transactions);
  if (num_transactions == 0) return run;

  // textFile(...).map(_.getTransaction()): the map keeps the cached RDD a
  // lineage child of driver-held data, so lost partitions are recomputable.
  auto transactions =
      ctx.parallelize(db.release(), options.partitions)
          .map([](const Transaction& t) { return t; })
          .named("transactions");
  if (options.cache_transactions) {
    transactions.persist();
    // Admit the cached partitions into the memory ledger (serialized size
    // as the resident estimate) so broadcast_fits sees them as pressure.
    ctx.memory_budget().note_cached(input_bytes);
  }
  load_span.arg("transactions", num_transactions);
  load_span.end();

  // Phase I (Algorithm 2) and Phase II (Algorithm 3), in the level-wise
  // driver shared with mr_apriori (fim/levelwise.h).
  mine_levelwise(
      ctx, first_stage, input_hash,
      {.engine = "yafim",
       // The one level per pass single-pass snapshots have always carried.
       .config_word = 1,
       .count_mode = options.count_mode,
       .broadcast_mode = options.broadcast_mode,
       .combining = options.combining,
       .checkpoint = options.checkpoint,
       .stop_after_pass = options.stop_after_pass,
       .phase_one = [&] {
         const std::vector<ItemCount> items =
             transactions
                 .flat_map([](const Transaction& t) {
                   return std::span<const Item>(t);
                 })
                 .named("phase1:items")
                 .map([](Item i) { return ItemCount(Singleton{i}, 1); })
                 .reduce_by_key([](u64 a, u64 b) { return a + b; }, 0,
                                SingletonHash{}, "phase1:count")
                 .named("phase1:counts")
                 .filter([min_count](const ItemCount& kv) {
                   return kv.second >= min_count;
                 })
                 .named("phase1:frequent")
                 .collect("phase1:collect");
         CountedLevels l1;
         for (const auto& [key, support] : items) {
           l1.frequent.emplace_back(Itemset{key.item}, support);
         }
         return l1;
       },
       // The label keeps the paper's name; hash trees are built, if at all,
       // by the counting plan.
       .gen_label = [](u32 k) {
         return "pass" + std::to_string(k) + ":ap_gen+buildHashTree";
       },
       // The counting plan lives in fim/count_core: broadcast or shard (the
       // decision is re-taken every pass, on the bytes that would ship) and
       // the lineage recompute of uncached transactions.
       .count = [&](const CandidateBatch& batch, u32 k) {
         return CountedLevels{count_batch(
             ctx, transactions, batch, options.broadcast_mode,
             {.count_mode = options.count_mode,
              .use_hash_tree = options.use_hash_tree,
              .broadcast_shards = options.broadcast_shards,
              .branching = options.branching,
              .leaf_capacity = options.leaf_capacity,
              .min_count = min_count,
              .pass_name = "pass" + std::to_string(k)},
             options.cache_transactions ? nullptr : &load)};
       }},
      run);

  mine_span.arg("passes", run.passes.size());
  mine_span.arg("frequent_itemsets", run.itemsets.total());
  mine_span.end();
  if (obs::enabled()) obs::Tracer::instance().drain();
  return run;
}

MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const TransactionDB& db, const YafimOptions& options) {
  const std::string path = "hdfs://staging/yafim-input";
  fs.write(path, db.serialize());
  return yafim_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
