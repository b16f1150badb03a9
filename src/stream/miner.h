// Streaming micro-batch frequent-itemset mining over minispark.
//
// A StreamingMiner consumes a deterministic windowed TransactionSource and
// maintains L1/Lk incrementally: each micro-batch is counted once (both
// CountModes, through the shared fim/count_core.h job), the per-batch
// counts are merged into running supports, and candidates are re-generated
// and re-verified over the full ingested history only when an item or
// itemset crosses MinSup in either direction. Every batch boundary writes a
// versioned snapshot through the YFCK checkpoint codec; a killed run
// resumes from the newest snapshot, replays the source to the recorded
// offset, and continues bit-identically with the uninterrupted run.
//
// Batch-boundary state machine (each phase is a deterministic kill point,
// selectable via YAFIM_FAULT_STREAM_{KILL_BATCH,KILL_PHASE,SEED} or the
// StreamOptions overrides):
//
//   kIngest   -> pull the batch window from the source, append to history,
//                write the write-ahead log block (priced DFS write)
//   kCount    -> one cluster job: batch L1 counts + batch supports of every
//                tracked k>=2 itemset (count_core, min_count = 1)
//   kMerge    -> driver: fold batch counts into running supports, recompute
//                MinSup count, update the hysteresis frontier
//   kReverify -> level-wise apriori_gen over the frontier; candidates never
//                seen before are counted over the full history; itemsets
//                that left the candidate universe are dropped
//   kSnapshot -> price the batch, feed the backpressure controller, write
//                the batch-boundary snapshot
//   kBoundary -> commit: bump counters, advance to the next batch
//
// Exactly-once: snapshots exist only at batch boundaries, so a mid-batch
// kill replays the whole batch from the previous boundary. All per-batch
// work is a pure function of (snapshot state, source, batch index) -- the
// replay recreates byte-identical state, and Context::set_stage_epoch pins
// the fault-draw stream so even injected task failures land identically.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/context.h"
#include "fim/checkpoint.h"
#include "fim/dataset.h"
#include "fim/result.h"
#include "fim/yafim.h"
#include "simfs/simfs.h"
#include "stream/backpressure.h"
#include "stream/checkpoint.h"
#include "stream/source.h"
#include "util/common.h"

namespace yafim::stream {

/// The six kill points per batch, in execution order.
enum class StreamPhase : u32 {
  kIngest = 0,
  kCount = 1,
  kMerge = 2,
  kReverify = 3,
  kSnapshot = 4,
  kBoundary = 5,
};
inline constexpr u32 kNumStreamPhases = 6;

const char* stream_phase_name(StreamPhase phase);

/// Thrown at a configured kill point. mine_cli maps it to the process
/// dying (exit 9) so CI can exercise real kill -9 semantics in-process.
class StreamKilledError : public std::runtime_error {
 public:
  StreamKilledError(u64 batch, StreamPhase phase);
  u64 batch() const { return batch_; }
  StreamPhase phase() const { return phase_; }

 private:
  u64 batch_;
  StreamPhase phase_;
};

struct StreamOptions {
  /// Relative MinSup over the ingested history.
  double min_support = 0.02;
  /// Micro-batches to mine before finalizing.
  u64 num_batches = 20;

  SourceOptions source;
  BackpressureOptions backpressure;

  // Counting configuration -- same semantics as YafimOptions, and the same
  // default count mode.
  fim::CountMode count_mode = fim::CountMode::kCandidateId;
  fim::BroadcastMode broadcast_mode = fim::BroadcastMode::kAuto;
  u32 partitions = 0;  ///< 0 = ctx.default_partitions()

  /// Snapshot store; null disables checkpointing (and resume).
  fim::CheckpointStore* checkpoint = nullptr;
};

struct StreamResult {
  /// Exact frequent itemsets over everything ingested -- identical to
  /// running batch Apriori on the concatenated history.
  fim::FrequentItemsets itemsets;
  u64 total_transactions = 0;
  u64 min_support_count = 0;

  /// Last batch restored from a snapshot (0 = cold start).
  u64 resumed_batch = 0;

  // Final backpressure posture + lifetime stats.
  u32 window_factor = 1;
  double reverify_slack = 0.0;
  u64 widenings = 0;
  u64 slack_raises = 0;
  /// Candidates re-verified over the full history (lifetime).
  u64 reverifications = 0;
  /// MinSup crossings still deferred when the last batch closed (all of
  /// them were drained by finalize, so the output above is exact).
  u64 deferred_at_close = 0;

  /// Ingest interval of the final batch (window_s * window_factor) -- the
  /// budget steady-state latency is judged against.
  double ingest_interval_s = 0.0;

  std::vector<StreamBatchStats> batches;

  /// Mean simulated batch latency over the last quartile of batches -- the
  /// steady-state figure reported in the "# stream:" line and gated by
  /// scripts/perf_gate.py.
  double steady_batch_seconds() const;
};

/// Run the streaming miner: `source_db` seeds the TransactionSource (the
/// stream replays it with wrap-around), `fs` prices WAL + spill traffic.
/// Throws StreamKilledError at the kill point of ctx's FaultProfile
/// (stream_kill_batch/stream_kill_phase, or one derived from stream_seed);
/// call again with the same options and checkpoint store to resume.
StreamResult stream_mine(engine::Context& ctx, simfs::SimFS& fs,
                         const fim::TransactionDB& source_db,
                         const StreamOptions& options);

}  // namespace yafim::stream
