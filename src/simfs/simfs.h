// SimFS: a simulated HDFS.
//
// Stands in for the HDFS cluster the paper stores its datasets on. Files
// live in host memory, but every read/write is priced by the cost model
// (block replication, disk and network bandwidth), and the byte payloads are
// real serialized data: the MapReduce substrate genuinely round-trips its
// inputs and outputs through here each job, which is precisely the overhead
// YAFIM is designed to avoid.
//
// Data integrity: every stored block carries an XXH64 checksum computed at
// write time and verified on every read (like HDFS's per-block CRCs). A
// deterministic CorruptionProfile can flip bits in individual block-replica
// reads; a verification failure is never surfaced to the caller as bad
// bytes -- the read retries the next replica (each retry priced as another
// block read) and only throws SimFSError{kCorrupt} once every replica of a
// block is damaged. Missing paths throw SimFSError{kNotFound} (a runtime
// condition: checkpoint resume probes for files that may not exist).
//
// Thread-safe. Paths are flat strings; "directories" are prefixes.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/corruption.h"
#include "sim/cost_model.h"
#include "util/common.h"
#include "util/thread_annotations.h"

namespace yafim::simfs {

struct FileStat {
  u64 bytes = 0;
  u32 blocks = 0;
};

/// Structured SimFS failure: which path, and why.
enum class SimFSErrorKind {
  kNotFound,  ///< no file at the path
  kCorrupt,   ///< every replica of some block failed checksum verification
};

class SimFSError : public std::runtime_error {
 public:
  SimFSError(std::string path, SimFSErrorKind kind);
  /// kCorrupt detail: which block gave up, after how many replica reads.
  /// what() then renders e.g. "simfs: 'p' unrecoverably corrupt (block 3:
  /// all 3 replicas failed verification)" so CI crash-recovery logs name
  /// the damage without a rerun.
  SimFSError(std::string path, SimFSErrorKind kind, u32 block, u32 replicas);

  const std::string& path() const { return path_; }
  SimFSErrorKind kind() const { return kind_; }
  /// Failing block index (kCorrupt only; 0 otherwise).
  u32 block() const { return block_; }
  /// Replicas tried before giving up (kCorrupt only; 0 otherwise).
  u32 replicas() const { return replicas_; }

 private:
  std::string path_;
  SimFSErrorKind kind_;
  u32 block_ = 0;
  u32 replicas_ = 0;
};

/// Always-on integrity counters (independent of obs tracing), cumulative
/// since construction.
struct IntegrityStats {
  /// Block-replica reads that were checksum-verified.
  u64 blocks_verified = 0;
  /// Bit flips injected by the CorruptionProfile.
  u64 corrupt_injected = 0;
  /// Verification failures (injected flips plus any real damage).
  u64 corrupt_detected = 0;
  /// Blocks healed by re-reading another replica.
  u64 repaired_by_replica = 0;
  /// Blocks with every replica corrupt (each threw SimFSError{kCorrupt}).
  u64 unrecoverable = 0;
};

class SimFS {
 public:
  /// The corruption profile defaults to the YAFIM_FAULT_CORRUPT_* env
  /// (disabled when unset), so a whole test or bench binary can run under
  /// injection without code changes -- same contract as FaultProfile.
  explicit SimFS(sim::ClusterConfig cluster,
                 sim::CorruptionProfile corrupt =
                     sim::CorruptionProfile::from_env())
      : cluster_(cluster), model_(cluster), corrupt_(corrupt) {}

  /// Store `data` at `path`, replacing any existing file, and checksum its
  /// blocks. Returns the simulated seconds the write took (replicated
  /// pipeline write).
  double write(const std::string& path, std::vector<u8> data);

  /// Read and checksum-verify the file at `path`. Throws SimFSError on a
  /// missing path or an unrecoverably corrupt block; detected-but-repaired
  /// corruption is invisible apart from the extra simulated read time and
  /// the integrity counters. If `sim_seconds` is non-null it receives the
  /// simulated read time (including replica retries).
  std::vector<u8> read(const std::string& path,
                       double* sim_seconds = nullptr) const;

  bool exists(const std::string& path) const;
  bool remove(const std::string& path);
  std::optional<FileStat> stat(const std::string& path) const;

  /// All paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix) const;

  /// Cumulative traffic counters (bytes) since construction. Replica
  /// retries are not counted here (they are priced into sim time and
  /// visible in integrity()); these stay the logical payload bytes.
  u64 total_bytes_written() const;
  u64 total_bytes_read() const;

  IntegrityStats integrity() const;

  /// Disable (or re-enable) checksum verification on reads. Only meant for
  /// the integrity microbenchmark's no-integrity baseline; injection is
  /// also skipped while verification is off (nothing would catch it).
  void set_verify_checksums(bool on);

  /// Test hook: flip one bit of the *stored* payload, damaging every
  /// replica at once (models storage-layer rot beneath the replication,
  /// which reads must detect and report, not silently return).
  void debug_corrupt(const std::string& path, u64 byte_index, u8 bit = 0);

  const sim::ClusterConfig& cluster() const { return cluster_; }

 private:
  struct StoredFile {
    std::vector<u8> data;
    /// XXH64 per block of cluster_.hdfs_block_bytes (one entry even for an
    /// empty file, so zero-length reads are verified too).
    std::vector<u64> block_sums;
  };

  u64 block_bytes() const { return cluster_.hdfs_block_bytes; }
  u32 blocks_of(u64 bytes) const {
    return static_cast<u32>(bytes == 0 ? 1 : ceil_div(bytes, block_bytes()));
  }

  sim::ClusterConfig cluster_;
  sim::CostModel model_;
  sim::CorruptionProfile corrupt_;

  mutable util::Mutex mutex_;
  bool verify_ YAFIM_GUARDED_BY(mutex_) = true;
  std::map<std::string, StoredFile> files_ YAFIM_GUARDED_BY(mutex_);
  u64 bytes_written_ YAFIM_GUARDED_BY(mutex_) = 0;
  mutable u64 bytes_read_ YAFIM_GUARDED_BY(mutex_) = 0;
  mutable IntegrityStats integrity_ YAFIM_GUARDED_BY(mutex_);
};

}  // namespace yafim::simfs
