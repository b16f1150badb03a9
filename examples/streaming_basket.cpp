// Streaming market-basket mining: the incremental miner end to end.
//
// Generates a retail-like basket stream with the IBM-Quest-style generator,
// feeds it through the windowed TransactionSource, and mines it with the
// StreamingMiner: per-batch counting, MinSup-crossing re-verification,
// batch-boundary snapshots, and backpressure. Halfway through, the run is
// killed at an injected kill point and resumed from the snapshot store; the
// example then verifies the resumed output is identical to an uninterrupted
// run, and that both match batch Apriori over the full ingested history --
// the exactly-once story in one program.
//
//   $ ./examples/streaming_basket [num_batches]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "datagen/quest.h"
#include "fim/apriori_seq.h"
#include "fim/checkpoint.h"
#include "stream/miner.h"
#include "util/log.h"

using namespace yafim;

namespace {

stream::StreamResult run_stream(const fim::TransactionDB& db,
                                const stream::StreamOptions& options,
                                engine::Context::Options copts = {}) {
  engine::Context ctx(copts);
  simfs::SimFS fs(ctx.cluster());
  return stream::stream_mine(ctx, fs, db, options);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const u64 num_batches =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 12;

  datagen::QuestParams params;
  params.num_transactions = 4000;
  params.avg_transaction_len = 8.0;
  params.num_items = 200;
  params.num_patterns = 40;
  params.seed = 7;
  const fim::TransactionDB db = datagen::generate_quest(params);

  stream::StreamOptions options;
  options.min_support = 0.05;
  options.num_batches = num_batches;
  options.source.window_s = 5.0;
  options.source.ingest_rate = 400.0;  // ~2000 baskets per batch window

  // --- uninterrupted reference run --------------------------------------
  const stream::StreamResult clean = run_stream(db, options);
  std::printf("uninterrupted: %llu baskets over %zu batches, "
              "%llu frequent itemsets (steady batch %.2fs vs %.1fs window)\n",
              (unsigned long long)clean.total_transactions,
              clean.batches.size(), (unsigned long long)clean.itemsets.total(),
              clean.steady_batch_seconds(), clean.ingest_interval_s);

  // --- killed halfway, then resumed from the snapshot store -------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "yafim_streaming_basket")
          .string();
  std::filesystem::remove_all(dir);
  fim::DirCheckpointStore store(dir);
  stream::StreamOptions killed = options;
  killed.checkpoint = &store;
  engine::Context::Options kill_point;
  kill_point.fault.stream_kill_batch = static_cast<u32>(num_batches / 2 + 1);
  kill_point.fault.stream_kill_phase =
      static_cast<u32>(stream::StreamPhase::kReverify);
  try {
    run_stream(db, killed, kill_point);
    std::printf("kill point never fired?\n");
    return 1;
  } catch (const stream::StreamKilledError& e) {
    std::printf("killed at batch %llu, phase %s (snapshots: %zu)\n",
                (unsigned long long)e.batch(),
                stream::stream_phase_name(e.phase()), store.list().size());
  }
  stream::StreamOptions resume = options;
  resume.checkpoint = &store;
  const stream::StreamResult resumed = run_stream(db, resume);
  std::printf("resumed from batch %llu, finished %zu batches\n",
              (unsigned long long)resumed.resumed_batch,
              resumed.batches.size());

  // --- exactly-once: resumed == uninterrupted == batch Apriori ----------
  if (!clean.itemsets.same_itemsets(resumed.itemsets)) {
    std::printf("MISMATCH: resumed run diverged from uninterrupted run\n");
    return 1;
  }
  // Rebuild the exact ingested history the stream saw (the source is a
  // deterministic replay, so per-batch counts from the stats suffice).
  fim::TransactionDB history;
  {
    stream::TransactionSource src(db, options.source);
    std::vector<fim::Transaction> tx;
    for (const auto& batch : clean.batches) {
      const auto arrived = src.take(batch.transactions);
      tx.insert(tx.end(), arrived.begin(), arrived.end());
    }
    history = fim::TransactionDB(std::move(tx));
  }
  fim::AprioriOptions batch_opt;
  batch_opt.min_support = options.min_support;
  const fim::MiningRun reference = fim::apriori_mine(history, batch_opt);
  if (!reference.itemsets.same_itemsets(clean.itemsets)) {
    std::printf("MISMATCH: stream diverged from batch Apriori\n");
    return 1;
  }
  std::printf("exactly-once verified: resumed == uninterrupted == batch "
              "Apriori (%llu itemsets)\n",
              (unsigned long long)clean.itemsets.total());
  return 0;
}
