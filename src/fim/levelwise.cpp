#include "fim/levelwise.h"

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace yafim::fim {

void mine_levelwise(engine::Context& ctx, size_t first_stage, u64 input_hash,
                    const LevelwiseSubstrate& s, MiningRun& run) {
  // Spans are built only while tracing: building their names every pass
  // cost chess_deep 3% of mine_s (perfbench, 4-vCPU host).
  const std::string name = s.engine;

  // The fingerprint binds snapshots to this exact input and configuration.
  // The count and broadcast modes are folded in because they price stages
  // differently: resuming one mode's snapshot into another would splice
  // incompatible per-pass timings together.
  u64 fingerprint = 0;
  std::optional<CheckpointState> restored;
  if (s.checkpoint) {
    fingerprint = checkpoint_fingerprint(
        s.engine, input_hash, run.itemsets.min_support_count(),
        (s.config_word + (u64{static_cast<u32>(s.count_mode)} << 32) +
         (u64{static_cast<u32>(s.broadcast_mode)} << 36)) ^
            pass_combining_fingerprint(s.combining));
    restored = load_latest_snapshot(*s.checkpoint, fingerprint);
  }
  std::vector<Itemset> frontier;
  u64 output_bytes = 0;
  u32 last_completed = 1;
  auto maybe_checkpoint = [&] {
    if (!s.checkpoint) return;
    // The snapshot carries priced passes.
    price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
    save_snapshot(*s.checkpoint,
                  {.fingerprint = fingerprint, .pass = last_completed,
                   .num_transactions = run.itemsets.num_transactions(),
                   .min_support_count = run.itemsets.min_support_count(),
                   .setup_seconds = run.setup_seconds, .aux = output_bytes,
                   .passes = run.passes, .itemsets = run.itemsets,
                   .frontier = frontier});
  };

  // A snapshot (every completed level and the frontier) replaces Phase I.
  if (restored) {
    run.resumed_pass = restored->pass;
    run.passes = std::move(restored->passes);
    run.itemsets = std::move(restored->itemsets);
    frontier = std::move(restored->frontier);
    output_bytes = restored->aux;
    last_completed = restored->pass;
    obs::count(obs::CounterId::kCheckpointPassesSkipped, restored->pass);
    obs::instant(
        s.engine, "resume",
        {{"pass", restored->pass}, {"itemsets", run.itemsets.total()}});
  } else {
    ctx.set_pass(1);
    std::optional<obs::Span> pass1_span;
    if (obs::enabled()) pass1_span.emplace(s.engine, name + ":pass1");
    CountedLevels items = s.phase_one();
    for (auto& [itemset, support] : items.frequent) {
      run.itemsets.add(itemset, support);
      frontier.push_back(std::move(itemset));
    }
    run.passes.push_back(PassStats{1, frontier.size(), frontier.size(), 0.0});
    if (pass1_span) {
      pass1_span->arg("frequent", frontier.size());
      pass1_span->end();
    }
    output_bytes = items.output_bytes;
    maybe_checkpoint();
  }

  // stop_after_pass simulates a crash right after that pass's snapshot.
  while (!frontier.empty() &&
         (s.max_levels == 0 || last_completed < s.max_levels) &&
         (s.stop_after_pass == 0 || last_completed < s.stop_after_pass)) {
    const u32 k = last_completed + 1;
    ctx.set_pass(k);
    std::optional<obs::Span> pass_span;
    if (obs::enabled()) {
      pass_span.emplace(s.engine, name + ":pass" + std::to_string(k));
    }
    if (s.before_generation) s.before_generation(k, output_bytes);

    const std::string gen_label = s.gen_label(k);
    std::optional<obs::Span> gen_span;
    if (obs::enabled()) gen_span.emplace("driver", gen_label);
    engine::work::Scope driver_scope;
    const CandidateBatch batch(candidate_levels(
        to_sorted_rows(frontier), k, s.combining, s.max_levels));
    if (batch.empty()) break;
    const u32 levels_in_batch = static_cast<u32>(batch.num_levels());
    if (gen_span) {
      gen_span->arg("candidates", batch.id_space());
      gen_span->arg("levels", levels_in_batch);
      gen_span->end();
    }
    sim::StageRecord gen;
    gen.label = gen_label;
    gen.kind = sim::StageKind::kOverhead;
    gen.pass = k;
    gen.driver_work = driver_scope.measured();
    ctx.record(std::move(gen));

    Stopwatch count_clock;
    CountedLevels counted = s.count(batch, k);
    run.count_host_seconds += count_clock.seconds();
    output_bytes = counted.output_bytes;

    const std::vector<std::vector<CountPair>> by_level =
        batch.split(std::move(counted.frequent));
    u64 frequent = 0;
    for (u32 j = 0; j < levels_in_batch; ++j) {
      for (const auto& [itemset, support] : by_level[j]) {
        run.itemsets.add(itemset, support);
      }
      run.passes.push_back(PassStats{k + j, batch.levels()[j].size(),
                                     by_level[j].size(), 0.0});
      frequent += by_level[j].size();
    }
    if (pass_span) {
      if (levels_in_batch > 1) pass_span->arg("levels", levels_in_batch);
      pass_span->arg("candidates", batch.id_space());
      pass_span->arg("frequent", frequent);
      pass_span->end();
    }

    // Copied after the adds: interleaving them scatters the itemsets on the
    // heap (+4% mine_s on perfbench's t10_lowsup, 4-vCPU host).
    frontier.clear();
    for (const auto& [itemset, support] : by_level[levels_in_batch - 1]) {
      frontier.push_back(itemset);
    }
    last_completed = k + levels_in_batch - 1;
    maybe_checkpoint();
  }

  ctx.set_pass(0);
  price_passes(ctx.report(), ctx.cost_model(), first_stage, run);
}

}  // namespace yafim::fim
