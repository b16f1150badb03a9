#include "fim/yafim.h"

#include <optional>
#include <span>
#include <string>
#include <utility>

#include "engine/rdd.h"
#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "fim/hash_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/stopwatch.h"

namespace yafim::fim {

MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const std::string& input_path,
                     const YafimOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  // Shuffle stages spill to the same filesystem the dataset lives on when
  // their buffers exceed the shuffle-buffer budget (engine/rdd.h).
  ctx.set_spill_fs(&fs);

  std::optional<obs::Span> mine_span;
  if (obs::enabled()) mine_span.emplace("yafim", "yafim:mine");

  // ---- Phase 0: load the dataset from HDFS into a cached RDD ----------
  ctx.set_pass(0);
  std::optional<obs::Span> load_span;
  if (obs::enabled()) load_span.emplace("yafim", "yafim:load");
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
  // stage again as its lineage recompute (count_candidate_trees).
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

  // Checkpoint/resume: the fingerprint binds snapshots to this exact input
  // and configuration, so a store populated by a different dataset, support
  // threshold or pass structure can never leak state into this run.
  u64 fingerprint = 0;
  std::optional<CheckpointState> restored;
  if (options.checkpoint) {
    // count_mode and broadcast_mode are folded in because the modes price
    // stages differently: resuming a faithful run's snapshot into a dense
    // run (or a broadcast run's into a partitioned run) would splice
    // incompatible per-pass timings together. The leading 1 is the one
    // level per pass single-pass snapshots have always carried.
    fingerprint = checkpoint_fingerprint(
        "yafim", input_hash, min_count,
        (1 + (u64{static_cast<u32>(options.count_mode)} << 32) +
         (u64{static_cast<u32>(options.broadcast_mode)} << 36)) ^
            pass_combining_fingerprint(options.combining));
    restored = load_latest_snapshot(*options.checkpoint, fingerprint);
  }
  auto maybe_checkpoint = [&](u32 completed_pass,
                              const std::vector<Itemset>& frontier) {
    if (!options.checkpoint) return;
    // The snapshot carries priced passes.
    price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.pass = completed_pass;
    state.num_transactions = num_transactions;
    state.min_support_count = min_count;
    state.setup_seconds = run.setup_seconds;
    state.passes = run.passes;
    state.itemsets = run.itemsets;
    state.frontier = frontier;
    save_snapshot(*options.checkpoint, state);
  };

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
  if (load_span) {
    load_span->arg("transactions", num_transactions);
    load_span->end();
  }

  // ---- Phase I: frequent 1-itemsets (Algorithm 2) ----------------------
  // Skipped entirely when a valid snapshot was restored: the snapshot holds
  // every completed level plus the frontier that seeds the next pass.
  std::vector<CountPair> level;
  std::vector<Itemset> frequent;
  u32 last_completed = 1;
  if (restored) {
    run.resumed_pass = restored->pass;
    run.passes = std::move(restored->passes);
    run.itemsets = std::move(restored->itemsets);
    frequent = std::move(restored->frontier);
    last_completed = restored->pass;
    obs::count(obs::CounterId::kCheckpointPassesSkipped, restored->pass);
    if (obs::enabled()) {
      obs::instant("yafim", "resume",
                   {{"pass", restored->pass},
                    {"itemsets", run.itemsets.total()}});
    }
  } else {
    ctx.set_pass(1);
    std::optional<obs::Span> pass1_span;
    if (obs::enabled()) pass1_span.emplace("yafim", "yafim:pass1");
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

    frequent.reserve(items.size());
    for (const auto& [key, support] : items) {
      run.itemsets.add(Itemset{key.item}, support);
      frequent.push_back(Itemset{key.item});
    }
    run.passes.push_back(PassStats{1, items.size(), items.size(), 0.0});
    if (pass1_span) {
      pass1_span->arg("frequent", items.size());
      pass1_span->end();
    }
    maybe_checkpoint(1, frequent);
  }

  // ---- Phase II: Lk from L(k-1) (Algorithm 3) --------------------------
  // Under pass combining one cluster pass counts a batch of candidate
  // levels (fim/candidate_gen.h candidate_levels).
  for (u32 k = last_completed + 1; !frequent.empty();) {
    if (options.stop_after_pass && last_completed >= options.stop_after_pass) {
      break;  // simulated crash: the last snapshot is the recovery point
    }
    ctx.set_pass(k);
    std::optional<obs::Span> pass_span;
    if (obs::enabled()) {
      pass_span.emplace("yafim", "yafim:pass" + std::to_string(k));
    }

    // Driver side: ap_gen, measured as driver work. The label keeps the
    // paper's name; hash trees are built, if at all, by the counting plan.
    std::optional<obs::Span> gen_span;
    if (obs::enabled()) {
      gen_span.emplace("driver",
                       "pass" + std::to_string(k) + ":ap_gen+buildHashTree");
    }
    engine::work::Scope driver_scope;
    const CandidateBatch batch(
        candidate_levels(to_sorted_rows(frequent), k, options.combining));
    if (batch.empty()) break;
    const u32 levels_in_batch = static_cast<u32>(batch.num_levels());
    {
      if (gen_span) {
        gen_span->arg("candidates", batch.id_space());
        gen_span->arg("levels", levels_in_batch);
        gen_span->end();
      }
      sim::StageRecord gen;
      gen.label = "pass" + std::to_string(k) + ":ap_gen+buildHashTree";
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }

    // The counting plan lives in fim/count_core: broadcast or shard (the
    // decision is re-taken every pass, on the bytes that would ship) and the
    // lineage recompute of uncached transactions.
    Stopwatch count_clock;
    level = count_batch(
        ctx, transactions, batch, options.broadcast_mode,
        {.count_mode = options.count_mode,
         .use_hash_tree = options.use_hash_tree,
         .broadcast_shards = options.broadcast_shards,
         .branching = options.branching,
         .leaf_capacity = options.leaf_capacity,
         .min_count = min_count,
         .pass_name = "pass" + std::to_string(k)},
        options.cache_transactions ? nullptr : &load);
    run.count_host_seconds += count_clock.seconds();

    const std::vector<std::vector<CountPair>> by_level =
        batch.split(std::move(level));
    for (u32 j = 0; j < levels_in_batch; ++j) {
      for (const auto& [itemset, support] : by_level[j]) {
        run.itemsets.add(itemset, support);
      }
      run.passes.push_back(PassStats{k + j, batch.levels()[j].size(),
                                     by_level[j].size(), 0.0});
    }
    if (pass_span) {
      u64 total_frequent = 0;
      for (const auto& lvl : by_level) total_frequent += lvl.size();
      if (levels_in_batch > 1) pass_span->arg("levels", levels_in_batch);
      pass_span->arg("candidates", batch.id_space());
      pass_span->arg("frequent", total_frequent);
      pass_span->end();
    }

    frequent.clear();
    for (const auto& [itemset, support] : by_level[levels_in_batch - 1]) {
      (void)support;
      frequent.push_back(itemset);
    }
    last_completed = k + levels_in_batch - 1;
    maybe_checkpoint(last_completed, frequent);
    k += levels_in_batch;
  }

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  if (mine_span) {
    mine_span->arg("passes", run.passes.size());
    mine_span->arg("frequent_itemsets", run.itemsets.total());
    mine_span->end();
    obs::Tracer::instance().drain();
  }
  return run;
}

MiningRun yafim_mine(engine::Context& ctx, simfs::SimFS& fs,
                     const TransactionDB& db, const YafimOptions& options) {
  const std::string path = "hdfs://staging/yafim-input";
  fs.write(path, db.serialize());
  return yafim_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
