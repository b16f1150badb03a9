// Deterministic cost model: converts work units and bytes into simulated
// seconds under a given ClusterConfig.
//
// Methodology (see DESIGN.md §5): algorithms execute for real on the host,
// and while doing so they count *work units* -- one unit is roughly one
// candidate-probe / tuple-operation -- plus the bytes they move. The model
// then prices those counters:
//
//   compute:   work / (work_units_per_sec_per_core)          per core
//   disk:      bytes / (disk_mbps * streams)
//   network:   bytes / (net_mbps * streams)
//
// The calibration constant (2M units/s/core) approximates one tuple
// operation -- an itemset probe, a shuffle-record hash, a pair emit --
// taking ~500ns on a 2.4 GHz core running 2013-era JVM dataflow code
// (object churn, boxing, serialization make per-record costs of this order;
// tight C code would be ~10x faster). All reported times are only
// meaningful relative to each other, which is exactly what the paper's
// figures compare.
#pragma once

#include "sim/cluster.h"
#include "util/common.h"

namespace yafim::sim {

class CostModel {
 public:
  explicit CostModel(ClusterConfig cluster) : cluster_(cluster) {}

  const ClusterConfig& cluster() const { return cluster_; }

  /// Seconds of single-core compute for `work` units.
  double compute_seconds(u64 work) const {
    return static_cast<double>(work) / kWorkUnitsPerSecPerCore;
  }

  /// Reading `bytes` from HDFS with all nodes pulling local blocks in
  /// parallel.
  double dfs_read_seconds(u64 bytes) const;

  /// Writing `bytes` to HDFS with pipeline replication: every byte is
  /// written `replication` times to disk and crosses the network
  /// (replication - 1) times.
  double dfs_write_seconds(u64 bytes) const;

  /// All-to-all shuffle of `bytes` across the cluster (each node both sends
  /// and receives; map-side spill to local disk included).
  double shuffle_seconds(u64 bytes) const;

  /// Broadcasting `bytes` from the driver to every node using a
  /// tree/torrent-style broadcast (Spark broadcast variables).
  double broadcast_seconds(u64 bytes) const;

  /// Naive per-task shipping of `bytes` to `tasks` tasks through the
  /// driver's single uplink -- the behaviour the paper calls out as the
  /// bottleneck that broadcast variables remove. Used by the ablation.
  double naive_ship_seconds(u64 bytes, u64 tasks) const;

  /// `bytes` of task results fetched through the driver's single link,
  /// priced as naive shipping prices its uplink for one task.
  double driver_link_seconds(u64 bytes) const {
    return static_cast<double>(bytes) / net_bps();
  }

  /// Work-unit calibration constant (units per second per core).
  static constexpr double kWorkUnitsPerSecPerCore = 2e6;

 private:
  double disk_bps() const { return cluster_.disk_mbps * 1e6; }
  double net_bps() const { return cluster_.net_mbps * 1e6; }

  ClusterConfig cluster_;
};

}  // namespace yafim::sim
