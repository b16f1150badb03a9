// Per-pass checkpoint/resume for the level-wise miners.
//
// After each completed Apriori pass k, YAFIM and MRApriori can persist a
// snapshot of everything the driver needs to continue: the cumulative
// frequent itemsets (with supports), the per-pass statistics, and the
// frontier Lk that seeds candidate generation for pass k+1. A later run
// pointed at the same store resumes from the newest *valid* snapshot and
// skips every completed pass -- the exact restart cost the paper's
// HDFS-bound MapReduce baseline pays on any failure. Both engines save and
// resume in their shared level-wise driver (fim/levelwise.h).
//
// Snapshot format (binary, little-endian via ByteWriter). Every snapshot
// shares one frame -- the header, the trailing checksum, the checksum-first
// open, the counted save and the newest-first probe below -- and each codec
// writes and reads only its body (the streaming miner's is version 2,
// stream/checkpoint.h):
//
//   magic   u32  'YFCK'
//   version u32  kSnapshotVersion
//   fingerprint  u64   -- hash of (engine, dataset bytes, min support,
//                         pass-structure options); a snapshot from a
//                         different input or configuration never resumes
//   pass    u32  -- last completed pass k
//   num_transactions u64, min_support_count u64, setup_seconds f64, aux u64
//   passes  [k, candidates, frequent, sim_seconds] x n
//   levels  frequent itemsets with supports, sorted (deterministic bytes)
//   frontier     Lk itemsets, sorted
//   checksum u64 -- XXH64 over every preceding byte
//
// Loading validates the checksum FIRST and only then parses, so a torn or
// bit-flipped snapshot is rejected whole -- never half-loaded. Writers go
// through a small Store interface with two backends: a real directory
// (atomic tmp+rename, survives SIGKILL of the process) and SimFS (whose own
// block checksums and replica repair sit underneath).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fim/result.h"
#include "util/bytes.h"
#include "util/common.h"

namespace yafim::simfs {
class SimFS;
}

namespace yafim::fim {

/// Where snapshots live. Names are flat strings ("pass-0003.ck").
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  /// Persist `bytes` under `name`, replacing any existing snapshot. Must be
  /// atomic: a crash mid-put leaves either the old content or the new,
  /// never a torn file under `name`.
  virtual void put(const std::string& name, const std::vector<u8>& bytes) = 0;

  /// Snapshot bytes, or nullopt if absent/unreadable. Never throws.
  virtual std::optional<std::vector<u8>> get(const std::string& name) = 0;

  /// All snapshot names present, sorted.
  virtual std::vector<std::string> list() = 0;

  virtual void remove(const std::string& name) = 0;
};

/// A checkpoint directory that cannot be created or written; what() names
/// the directory and the failing step.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(std::string dir, const std::string& problem);
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Snapshots as files in a real directory (created on demand). Puts write
/// to a ".tmp" sibling and rename into place. Throws CheckpointError when
/// the directory cannot be created or a snapshot cannot be written.
class DirCheckpointStore final : public CheckpointStore {
 public:
  explicit DirCheckpointStore(std::string dir);

  void put(const std::string& name, const std::vector<u8>& bytes) override;
  std::optional<std::vector<u8>> get(const std::string& name) override;
  std::vector<std::string> list() override;
  void remove(const std::string& name) override;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Snapshots as SimFS files under a path prefix (the paper's setup: driver
/// state persisted back to HDFS). SimFS-level corruption is absorbed here:
/// an unrecoverably corrupt snapshot reads as absent.
class SimFSCheckpointStore final : public CheckpointStore {
 public:
  SimFSCheckpointStore(simfs::SimFS& fs, std::string prefix);

  void put(const std::string& name, const std::vector<u8>& bytes) override;
  std::optional<std::vector<u8>> get(const std::string& name) override;
  std::vector<std::string> list() override;
  void remove(const std::string& name) override;

 private:
  simfs::SimFS& fs_;
  std::string prefix_;
};

inline constexpr u32 kSnapshotMagic = 0x4B434659;  // "YFCK"
inline constexpr u32 kSnapshotVersion = 1;

/// Everything a level-wise miner needs to continue after pass `pass`.
struct CheckpointState {
  u64 fingerprint = 0;
  u32 pass = 0;

  u64 num_transactions = 0;
  u64 min_support_count = 0;
  double setup_seconds = 0.0;
  /// Engine-private carry-over (MRApriori persists the previous job's
  /// output bytes here -- its cost model reads them back on job k+1).
  u64 aux = 0;
  std::vector<PassStats> passes;

  /// All frequent itemsets found through pass `pass`, with supports.
  FrequentItemsets itemsets;
  /// The last completed level Lk (seeds apriori_gen for pass + 1).
  std::vector<Itemset> frontier;
};

// --- the snapshot frame, shared by every codec ---------------------------

/// Start a snapshot: magic, `version`, `fingerprint`. The codec appends its
/// body and hands the writer to seal_snapshot.
ByteWriter begin_snapshot(u32 version, u64 fingerprint);

/// Append the XXH64 of every preceding byte; returns the snapshot.
std::vector<u8> seal_snapshot(ByteWriter w);

/// Checksum-first open: a reader over the body (after the header, before
/// the checksum), or nullopt if the checksum, magic, version or fingerprint
/// does not match. Only verified bytes reach the reader, so its CHECKs
/// never fire on damaged input.
std::optional<ByteReader> open_snapshot(std::span<const u8> bytes, u32 version,
                                        u64 expected_fingerprint);

/// Persist `bytes` under `name` and count the write.
void put_snapshot(CheckpointStore& store, const std::string& name,
                  const std::vector<u8>& bytes);

/// Offer the store's snapshots to `accept` from the highest name down
/// until it takes one. Snapshot names zero-pad their sequence number, so
/// this is newest-first. Unreadable or refused snapshots are counted into
/// `*rejected` (when non-null) and skipped.
void probe_latest_snapshot(
    CheckpointStore& store, u32* rejected,
    const std::function<bool(std::span<const u8>)>& accept);

// --- the per-pass codec ---------------------------------------------------

/// Deterministic configuration fingerprint. `data_hash` is XXH64 of the
/// serialized dataset bytes; `extra` folds in engine options that change
/// the pass structure (e.g. the pass combining, max_levels).
u64 checkpoint_fingerprint(std::string_view engine, u64 data_hash,
                           u64 min_support_count, u64 extra);

/// Canonical snapshot name for pass k ("pass-0003.ck").
std::string snapshot_name(u32 pass);

/// Serialize a snapshot (versioned, checksummed, deterministic bytes).
std::vector<u8> encode_snapshot(const CheckpointState& state);

/// Parse and validate a snapshot. Returns nullopt -- never a partial state,
/// never an abort -- if the bytes are truncated, bit-flipped, of a foreign
/// version, or carry a different fingerprint than `expected_fingerprint`.
std::optional<CheckpointState> decode_snapshot(std::span<const u8> bytes,
                                               u64 expected_fingerprint);

/// Persist `state` into `store` under snapshot_name(state.pass).
void save_snapshot(CheckpointStore& store, const CheckpointState& state);

/// Newest valid snapshot matching `expected_fingerprint`, probing from the
/// highest pass down. Damaged or mismatched snapshots are counted into
/// `*rejected` (when non-null) and skipped.
std::optional<CheckpointState> load_latest_snapshot(
    CheckpointStore& store, u64 expected_fingerprint, u32* rejected = nullptr);

}  // namespace yafim::fim
