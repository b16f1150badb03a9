// The level-wise driver of YAFIM (fim/yafim.h) and MRApriori
// (fim/mr_apriori.h): pass 1 finds L1 (the paper's Algorithm 2), then each
// pass generates a batch of candidate levels from the frontier on the
// driver and counts it on the cluster (Algorithm 3). The substrates supply
// only their load, Phase I and batch counting, so the paper's comparison
// varies only the substrate. The loop owns checkpoint/resume, the pass
// boundaries (ctx.set_pass releases a pass's broadcasts and fires
// YAFIM_FAULT_MEM_* shrinks), the ap_gen stage, PassStats and pricing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/context.h"
#include "fim/candidate_gen.h"
#include "fim/checkpoint.h"
#include "fim/count_core.h"
#include "fim/result.h"

namespace yafim::fim {

/// The survivors of Phase I or of one counted batch.
struct CountedLevels {
  std::vector<CountPair> frequent;
  /// Bytes written for them (MapReduce's DFS output, else 0): the next
  /// pass's before_generation reads them, and snapshots carry them as aux.
  u64 output_bytes = 0;
};

/// The engine options the loop reads, and the steps that differ.
struct LevelwiseSubstrate {
  /// The fingerprint's engine name, and the trace category of the
  /// `<engine>:pass<k>` spans.
  const char* engine = "";
  /// The engine's pass-structure word, folded into the fingerprint with
  /// the count and broadcast modes and the pass combining.
  u64 config_word = 0;
  CountMode count_mode = CountMode::kCandidateId;
  BroadcastMode broadcast_mode = BroadcastMode::kAuto;
  PassCombining combining{};
  /// Count no level past this one (0 = no limit).
  u32 max_levels = 0;
  CheckpointStore* checkpoint = nullptr;
  u32 stop_after_pass = 0;

  std::function<CountedLevels()> phase_one{};
  /// Optional: stages pass k records before its candidates are generated;
  /// `prev_bytes` is the previous pass's output_bytes.
  std::function<void(u32 k, u64 prev_bytes)> before_generation{};
  /// The label of pass k's ap_gen stage and driver span.
  std::function<std::string(u32 k)> gen_label{};
  /// Pass k's batch counted: the candidates with support >= min count.
  std::function<CountedLevels(const CandidateBatch& batch, u32 k)> count{};
};

/// Mine into `run` from pass 1, or after the newest valid snapshot, until
/// no candidates are left. `run.itemsets` arrives empty with the min count
/// and transaction count; `input_hash`, the input bytes' XXH64, is read
/// only when checkpointing. Stages from `first_stage` on are priced.
void mine_levelwise(engine::Context& ctx, size_t first_stage, u64 input_hash,
                    const LevelwiseSubstrate& substrate, MiningRun& run);

}  // namespace yafim::fim
