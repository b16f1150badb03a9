// Batch-boundary snapshots for the streaming miner, through the YFCK
// checkpoint machinery (fim/checkpoint.h).
//
// Same store interface and the same frame as the per-pass miner snapshots
// -- magic, version, fingerprint, trailing XXH64 validated before any
// parsing, counted saves, newest-first probe, all from fim/checkpoint --
// but a distinct version (2) and its own body: a streaming snapshot
// carries running supports and the hysteresis frontier rather than
// completed Apriori levels, plus the backpressure knobs and per-batch
// statistics. The fingerprint folds in the window/batch parameters and
// broadcast mode, so a snapshot taken under one streaming configuration
// never resumes a different one.
//
// Recovery invariant: a snapshot is written exactly at a batch boundary
// (after merge + reverify of batch b, before ingest of b+1), so restoring
// it and replaying the source to `source_offset` reconstructs the precise
// driver state the uninterrupted run had at that boundary. Mid-batch kills
// replay the whole batch from the previous boundary -- per-batch work is
// deterministic, so the replay is bit-identical and exactly-once at the
// granularity of observable state.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fim/checkpoint.h"
#include "fim/itemset.h"
#include "util/common.h"

namespace yafim::stream {

inline constexpr u32 kStreamSnapshotVersion = 2;

/// Per-batch accounting, persisted so a resumed run reports the same
/// series as the uninterrupted one.
struct StreamBatchStats {
  u64 batch = 0;            ///< 1-based batch index
  u64 transactions = 0;     ///< transactions ingested this batch
  u64 new_candidates = 0;   ///< candidates re-verified over full history
  u32 window_factor = 1;    ///< effective window factor during the batch
  double sim_seconds = 0.0; ///< simulated mining latency of the batch
};

/// Everything the streaming miner needs to continue after batch `batch`.
struct StreamCheckpointState {
  u64 fingerprint = 0;
  u64 batch = 0;          ///< last completed batch (1-based)
  u64 source_offset = 0;  ///< absolute transactions ingested so far

  u64 total_transactions = 0;
  u64 min_support_count = 0;

  // Backpressure controller state + lifetime stats.
  u32 window_factor = 1;
  double reverify_slack = 0.0;
  u64 widenings = 0;
  u64 slack_raises = 0;
  u64 reverifications = 0;

  /// Running exact supports: every item ever seen, and every k>=2 itemset
  /// currently tracked (in the candidate universe).
  std::vector<std::pair<fim::Itemset, u64>> supports;
  /// Hysteresis frontier: itemsets currently counted as frequent.
  std::vector<fim::Itemset> frontier;

  std::vector<StreamBatchStats> batches;
};

/// Canonical snapshot name for batch b ("batch-000012.ck"). Zero-padded so
/// lexicographic order is batch order, like the per-pass names.
std::string stream_snapshot_name(u64 batch);

/// Serialize (versioned, checksummed, deterministic bytes).
std::vector<u8> encode_stream_snapshot(const StreamCheckpointState& state);

/// Parse and validate; nullopt on damage, foreign version, or fingerprint
/// mismatch -- never a partial state.
std::optional<StreamCheckpointState> decode_stream_snapshot(
    std::span<const u8> bytes, u64 expected_fingerprint);

/// Persist under stream_snapshot_name(state.batch).
void save_stream_snapshot(fim::CheckpointStore& store,
                          const StreamCheckpointState& state);

/// Newest valid snapshot, probing from the highest batch down; damaged or
/// mismatched snapshots are counted into `*rejected` and skipped.
std::optional<StreamCheckpointState> load_latest_stream_snapshot(
    fim::CheckpointStore& store, u64 expected_fingerprint,
    u32* rejected = nullptr);

}  // namespace yafim::stream
