#include "fim/mr_apriori.h"

#include <iterator>
#include <memory>

#include "fim/count_core.h"
#include "fim/levelwise.h"
#include "util/checksum.h"

namespace yafim::fim {

MiningRun mr_apriori_mine(engine::Context& ctx, simfs::SimFS& fs,
                          const std::string& input_path,
                          const MrAprioriOptions& options) {
  const size_t first_stage = ctx.report().stages().size();
  // MapReduce shuffles spill through the same path as Spark stages when
  // their buffers exceed the shuffle-buffer budget (mapreduce/job.h).
  ctx.set_spill_fs(&fs);
  mr::JobRunner runner(ctx, fs);

  // Driver-side setup knowledge: |D| for the absolute threshold, from the
  // payload's header. (In PApriori the driver knows the dataset size a
  // priori; not charged.) The bytes are kept only to fingerprint a
  // checkpoint.
  u64 num_transactions = 0;
  u64 input_hash = 0;
  {
    const std::vector<u8> raw = fs.read(input_path);
    num_transactions = TransactionDB::serialized_size(raw);
    if (options.checkpoint) input_hash = xxh64(raw.data(), raw.size());
  }
  MiningRun run;
  if (num_transactions == 0) {
    run.itemsets = FrequentItemsets(1, 0);
    return run;
  }
  const u64 min_count = min_count_ceil(options.min_support, num_transactions);
  run.itemsets = FrequentItemsets(min_count, num_transactions);

  // Job k >= 2: count `batch` in one job, or in one sub-job per range of
  // first items when its candidates do not fit the tightest executor.
  auto count_job = [&](const CandidateBatch& batch, u32 k) {
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
    return CountedLevels{std::move(result.output), result.output_bytes};
  };

  // The level-wise driver shared with yafim (fim/levelwise.h). SPC (the
  // default) is Li et al.'s one level per job; FPC and DPC count several.
  mine_levelwise(
      ctx, first_stage, input_hash,
      {.engine = "mrapriori",
       .config_word = options.max_levels,
       .count_mode = options.count_mode,
       .broadcast_mode = options.broadcast_mode,
       .combining = options.combining,
       .max_levels = options.max_levels,
       .checkpoint = options.checkpoint,
       .stop_after_pass = options.stop_after_pass,
       // Job 1: frequent items.
       .phase_one = [&] {
         auto result = runner.run(
             frequent_items_job("mrapriori:job1", min_count,
                                options.num_mappers, options.num_reducers),
             input_path, options.work_dir + "/L1");
         return CountedLevels{std::move(result.output), result.output_bytes};
       },
       // The driver reads L(k-1) back from HDFS to generate candidates. A
       // snapshot carries its size, so a resumed run's first read-back
       // prices as the uninterrupted run's.
       .before_generation = [&](u32 k, u64 prev_bytes) {
         sim::StageRecord read_back;
         read_back.label = "mrapriori:driver read L" + std::to_string(k - 1);
         read_back.kind = sim::StageKind::kOverhead;
         read_back.pass = k;
         read_back.dfs_read_bytes = prev_bytes;
         ctx.record(std::move(read_back));
       },
       .gen_label = [](u32 k) {
         return "mrapriori:ap_gen L" + std::to_string(k);
       },
       .count = count_job},
      run);
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
