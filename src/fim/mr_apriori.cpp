#include "fim/mr_apriori.h"

#include <iterator>
#include <memory>

#include "fim/candidate_gen.h"
#include "fim/count_core.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/stopwatch.h"

namespace yafim::fim {

MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const MrAprioriOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  // MapReduce shuffles spill through the same path as Spark stages when
  // their buffers exceed the shuffle-buffer budget (mapreduce/job.h).
  ctx.set_spill_fs(&fs);
  mr::JobRunner runner(ctx, fs);

  // Driver-side setup knowledge: |D| for the absolute threshold. (In
  // PApriori the driver knows the dataset size a priori; not charged.)
  const std::vector<u8> raw = fs.read(input_path);
  const u64 num_transactions = TransactionDB::deserialize(raw).size();
  MiningRun run;
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return run;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  // Checkpoint/resume (same contract as yafim.cpp): snapshots are bound to
  // this exact dataset + configuration via the fingerprint. MRApriori also
  // persists prev_output_bytes (in aux) -- the driver's L(k-1) read-back
  // cost on the first resumed job must match the uninterrupted run.
  u64 fingerprint = 0;
  std::optional<CheckpointState> restored;
  if (options.checkpoint) {
    // count_mode, broadcast_mode and the pass combining folded in for the
    // same reason as yafim.cpp: they price the k >= 2 jobs differently, so
    // snapshots must not mix.
    fingerprint = checkpoint_fingerprint(
        "mrapriori", xxh64(raw.data(), raw.size()), min_count,
        (options.max_levels +
         (u64{static_cast<u32>(options.count_mode)} << 32) +
         (u64{static_cast<u32>(options.broadcast_mode)} << 36)) ^
            pass_combining_fingerprint(options.combining));
    restored = load_latest_snapshot(*options.checkpoint, fingerprint);
  }
  u64 prev_output_bytes = 0;
  auto maybe_checkpoint = [&](u32 completed_pass,
                              const std::vector<Itemset>& frontier) {
    if (!options.checkpoint) return;
    price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
    CheckpointState state;
    state.fingerprint = fingerprint;
    state.pass = completed_pass;
    state.num_transactions = num_transactions;
    state.min_support_count = min_count;
    state.setup_seconds = run.setup_seconds;
    state.aux = prev_output_bytes;
    state.passes = run.passes;
    state.itemsets = run.itemsets;
    state.frontier = frontier;
    save_snapshot(*options.checkpoint, state);
  };

  // ---- Job 1: frequent items ------------------------------------------
  std::vector<Itemset> frequent;
  u32 last_completed = 1;
  if (restored) {
    run.resumed_pass = restored->pass;
    run.passes = std::move(restored->passes);
    run.itemsets = std::move(restored->itemsets);
    frequent = std::move(restored->frontier);
    prev_output_bytes = restored->aux;
    last_completed = restored->pass;
    obs::count(obs::CounterId::kCheckpointPassesSkipped, restored->pass);
  } else {
    ctx.set_pass(1);
    auto result = runner.run(
        frequent_items_job("mrapriori:job1", min_count, options.num_mappers,
                           options.num_reducers),
        input_path, options.work_dir + "/L1");
    frequent.reserve(result.output.size());
    for (const auto& [itemset, support] : result.output) {
      run.itemsets.add(itemset, support);
      frequent.push_back(itemset);
    }
    run.passes.push_back(
        PassStats{1, result.output.size(), result.output.size(), 0.0});
    prev_output_bytes = result.output_bytes;
    maybe_checkpoint(1, frequent);
  }

  // ---- Jobs k >= 2: one per batch of candidate levels -------------------
  // SPC (the default) is Li et al.'s one level per job; FPC and DPC count
  // several (fim/candidate_gen.h candidate_levels).
  for (u32 k = last_completed + 1;
       !frequent.empty() &&
       (options.max_levels == 0 || k <= options.max_levels);) {
    if (options.stop_after_pass && last_completed >= options.stop_after_pass) {
      break;  // simulated crash: the last snapshot is the recovery point
    }
    ctx.set_pass(k);

    // The driver reads L(k-1) back from HDFS to generate candidates.
    {
      sim::StageRecord read_back;
      read_back.label = "mrapriori:driver read L" + std::to_string(k - 1);
      read_back.kind = sim::StageKind::kOverhead;
      read_back.pass = k;
      read_back.dfs_read_bytes = prev_output_bytes;
      ctx.record(std::move(read_back));
    }

    engine::work::Scope driver_scope;
    const CandidateBatch batch(candidate_levels(
        to_sorted_rows(frequent), k, options.combining, options.max_levels));
    if (batch.empty()) break;
    const u32 levels_in_batch = static_cast<u32>(batch.num_levels());
    {
      sim::StageRecord gen;
      gen.label = "mrapriori:ap_gen L" + std::to_string(k);
      gen.kind = sim::StageKind::kOverhead;
      gen.pass = k;
      gen.driver_work = driver_scope.measured();
      ctx.record(std::move(gen));
    }

    const std::string job_name = "mrapriori:job" + std::to_string(k);
    const std::string out_path = options.work_dir + "/L" + std::to_string(k);

    // Broadcast ceiling (engine/memory.h): when what the cache would
    // localize does not fit next to what the ledger places on the tightest
    // executor (ship_batch), count the batch as one sub-job per range of
    // first items (split_first_items), each localizing only the kernel of
    // its slices of every level -- at the honest MapReduce price of
    // re-reading the input per sub-job.
    CountCoreOptions count_opt;
    count_opt.count_mode = options.count_mode;
    const BatchShipment ship =
        ship_batch(ctx, batch, options.broadcast_mode, count_opt);
    Stopwatch count_clock;
    mr::JobResult<CountPair> result;
    if (ship.partitioned) {
      ctx.linter().note_broadcast_fallback(
          ship.bytes, job_name + ":distributed_cache",
          /*forced=*/ctx.memory_budget().broadcast_fits(ship.bytes));
      ctx.memory_budget().note_fallback(ship.bytes);
      // Each range fits the tightest node unless it is one first-item
      // class, which then lints like any other oversized localization.
      const u64 budget = ctx.memory_budget().min_node_budget();
      engine::work::Scope shard_scope;
      const std::vector<FirstItemRange> ranges =
          split_first_items(batch.levels(), budget != 0 ? budget : ~u64{0});
      {
        sim::StageRecord shard_stage;
        shard_stage.label = job_name + ":shard-candidates";
        shard_stage.kind = sim::StageKind::kOverhead;
        shard_stage.pass = k;
        shard_stage.driver_work = shard_scope.measured();
        ctx.record(std::move(shard_stage));
      }
      for (size_t s = 0; s < ranges.size(); ++s) {
        const std::vector<LevelView>& levels = ranges[s].levels;
        auto r = runner.run(
            candidate_id_job(job_name + ":shard" + std::to_string(s), levels,
                             std::make_shared<const DenseKernel>(levels),
                             min_count, options.num_mappers,
                             options.num_reducers),
            input_path, out_path + "-shard" + std::to_string(s));
        result.output_bytes += r.output_bytes;
        result.output.insert(result.output.end(),
                             std::make_move_iterator(r.output.begin()),
                             std::make_move_iterator(r.output.end()));
      }
    } else if (options.count_mode == CountMode::kItemsetKey) {
      // The mappers probe the hash trees from the distributed cache.
      result = runner.run(itemset_count_job(job_name, ship.trees, min_count,
                                            options.num_mappers,
                                            options.num_reducers),
                          input_path, out_path);
    } else {
      result = runner.run(
          candidate_id_job(job_name, batch.levels(), ship.kernel, min_count,
                           options.num_mappers, options.num_reducers),
          input_path, out_path);
    }
    run.count_host_seconds += count_clock.seconds();

    const std::vector<std::vector<CountPair>> by_level =
        batch.split(std::move(result.output));
    for (u32 j = 0; j < levels_in_batch; ++j) {
      for (const auto& [itemset, support] : by_level[j]) {
        run.itemsets.add(itemset, support);
      }
      run.passes.push_back(
          PassStats{k + j, batch.levels()[j].size(), by_level[j].size(), 0.0});
    }
    frequent.clear();
    for (const auto& [itemset, support] : by_level[levels_in_batch - 1]) {
      frequent.push_back(itemset);
    }
    prev_output_bytes = result.output_bytes;
    last_completed = k + levels_in_batch - 1;
    maybe_checkpoint(last_completed, frequent);
    k += levels_in_batch;
  }

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
  return run;
}

MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const TransactionDB& db,
                          const MrAprioriOptions& options) {
  const std::string path = "hdfs://staging/mrapriori-input";
  fs.write(path, db.serialize());
  return mr_apriori_mine(ctx, fs, path, options);
}

}  // namespace yafim::fim
