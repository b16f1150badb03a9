// Memory-pressure-aware execution: the per-executor MemoryBudget ledger.
//
// The paper's design assumes every executor can hold the whole candidate
// hash tree next to its cached transaction partitions; the linter's YL002
// rule marks where that assumption breaks (Ck > executor_memory_bytes at
// low MinSup). This ledger makes the engine *aware* of the ceiling instead
// of merely flagging it: Context consults it before every broadcast, and
// the miners degrade gracefully when a payload would not fit --
//
//   * full broadcast  -> partitioned candidate store (fim/count_core.h
//     split_first_items: contiguous ranges of first items, each shipping
//     the DenseKernel of its slices to one executor group, and transactions
//     re-partitioned to the ranges they reach -- the trade-off studied in
//     Aouad et al., arXiv 1903.03008);
//   * in-memory shuffle buffers -> spill to simfs with block compression
//     (util/bytes yz codec), priced by the cost model and checksummed like
//     every other simfs block.
//
// The ledger tracks three resident components per node, all in the same
// bytes_of/ADL byte_size units the rest of the engine prices with:
// broadcast payloads (replicated: the full payload sits on EVERY node),
// cached RDD partitions (spread round-robin like task placement), and
// in-flight shuffle buffers (spread likewise). Budgets come from
// ClusterConfig::executor_memory_bytes (0 = unbounded) and can shrink
// mid-run through the deterministic YAFIM_FAULT_MEM_* axis
// (FaultProfile::mem_shrink_*), applied at pass boundaries so a degrading
// run replays bit-identically.
#pragma once

#include <atomic>

#include "engine/fault.h"
#include "sim/cluster.h"
#include "util/common.h"

namespace yafim::engine {

class MemoryBudget {
 public:
  MemoryBudget(const sim::ClusterConfig& cluster, const FaultProfile& fault);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// 0-budget clusters model the paper's "enough memory" assumption.
  bool unbounded() const { return base_budget_ == 0; }

  /// Effective budget of one node (base, shrunk once the fault axis fired).
  u64 node_budget(u32 node) const;
  /// Budget of the tightest node -- what a replicated payload must fit.
  u64 min_node_budget() const;

  /// Would broadcasting `bytes` to every executor fit next to what the
  /// ledger already places on the tightest node? Always true when
  /// unbounded.
  bool broadcast_fits(u64 bytes) const;

  /// Per-node in-flight shuffle-buffer budget
  /// (ClusterConfig::shuffle_buffer_bytes; 0 = unbounded, never spill).
  u64 shuffle_buffer_node_budget() const { return shuffle_buffer_bytes_; }
  /// Should a shuffle stage holding `buffered_bytes` across the cluster
  /// spill its blocks to simfs?
  bool shuffle_should_spill(u64 buffered_bytes) const;

  /// Pass boundary: releases the previous pass's broadcast payloads (the
  /// miners drop their Broadcast handles between passes) and applies the
  /// YAFIM_FAULT_MEM_* shrink when `pass` reaches the seeded trigger.
  void begin_pass(u32 pass);

  // --- ledger ------------------------------------------------------------
  void note_broadcast(u64 bytes) {
    broadcast_resident_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_cached(u64 bytes) {
    cached_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  u64 broadcast_resident_bytes() const {
    return broadcast_resident_.load(std::memory_order_relaxed);
  }
  u64 cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }
  /// In-flight shuffle buffers (map-side partials awaiting the reduce
  /// side). Shuffle stages add while buffering and release on consume or
  /// spill, so broadcast_fits sees transient pressure too.
  void note_shuffle_buffered(u64 bytes) {
    shuffle_buffered_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void release_shuffle_buffered(u64 bytes) {
    shuffle_buffered_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  u64 shuffle_buffered_bytes() const {
    return shuffle_buffered_.load(std::memory_order_relaxed);
  }

  // --- always-on degradation statistics (independent of obs tracing) ----
  void note_fallback(u64 bytes);
  void note_spill_write(u64 raw_bytes, u64 stored_bytes);
  void note_spill_read(u64 raw_bytes);

  u64 broadcast_fallbacks() const { return fallbacks_.load(); }
  u64 spill_blocks_written() const { return spill_blocks_written_.load(); }
  u64 spill_bytes_raw() const { return spill_bytes_raw_.load(); }
  u64 spill_bytes_stored() const { return spill_bytes_stored_.load(); }
  u64 spill_blocks_read() const { return spill_blocks_read_.load(); }
  u64 mem_shrinks_applied() const { return shrinks_applied_.load(); }

 private:
  /// Ledger bytes currently resident on `node`.
  u64 used_on(u32 node) const;

  u32 nodes_;
  u64 base_budget_;
  u64 shuffle_buffer_bytes_;

  // YAFIM_FAULT_MEM_* axis (immutable after construction; `shrunk_` flips
  // once at the seeded pass boundary).
  u32 mem_shrink_pass_;
  double mem_shrink_factor_;
  u32 mem_shrink_node_;
  std::atomic<bool> shrunk_{false};

  std::atomic<u64> broadcast_resident_{0};
  std::atomic<u64> cached_bytes_{0};
  std::atomic<u64> shuffle_buffered_{0};

  std::atomic<u64> fallbacks_{0};
  std::atomic<u64> spill_blocks_written_{0};
  std::atomic<u64> spill_bytes_raw_{0};
  std::atomic<u64> spill_bytes_stored_{0};
  std::atomic<u64> spill_blocks_read_{0};
  std::atomic<u64> shrinks_applied_{0};
};

}  // namespace yafim::engine
