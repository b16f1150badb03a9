#include "stream/checkpoint.h"

#include <algorithm>
#include <cstdio>

namespace yafim::stream {

std::string stream_snapshot_name(u64 batch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "batch-%06llu.ck",
                static_cast<unsigned long long>(batch));
  return buf;
}

std::vector<u8> encode_stream_snapshot(const StreamCheckpointState& state) {
  ByteWriter w =
      fim::begin_snapshot(kStreamSnapshotVersion, state.fingerprint);
  w.write_u64(state.batch);
  w.write_u64(state.source_offset);
  w.write_u64(state.total_transactions);
  w.write_u64(state.min_support_count);
  w.write_u32(state.window_factor);
  w.write_double(state.reverify_slack);
  w.write_u64(state.widenings);
  w.write_u64(state.slack_raises);
  w.write_u64(state.reverifications);

  // Supports and frontier sorted by (size, lex) so identical states encode
  // to identical bytes regardless of hash-map iteration order.
  auto supports = state.supports;
  std::sort(supports.begin(), supports.end(),
            [](const auto& a, const auto& b) {
              if (a.first.size() != b.first.size()) {
                return a.first.size() < b.first.size();
              }
              return a.first < b.first;
            });
  w.write_u64(supports.size());
  for (const auto& [itemset, support] : supports) {
    w.write_u32_vec(itemset);
    w.write_u64(support);
  }

  auto frontier = state.frontier;
  std::sort(frontier.begin(), frontier.end(),
            [](const fim::Itemset& a, const fim::Itemset& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  w.write_u64(frontier.size());
  for (const fim::Itemset& s : frontier) w.write_u32_vec(s);

  w.write_u64(state.batches.size());
  for (const StreamBatchStats& b : state.batches) {
    w.write_u64(b.batch);
    w.write_u64(b.transactions);
    w.write_u64(b.new_candidates);
    w.write_u32(b.window_factor);
    w.write_double(b.sim_seconds);
  }

  return fim::seal_snapshot(std::move(w));
}

std::optional<StreamCheckpointState> decode_stream_snapshot(
    std::span<const u8> bytes, u64 expected_fingerprint) {
  std::optional<ByteReader> body =
      fim::open_snapshot(bytes, kStreamSnapshotVersion, expected_fingerprint);
  if (!body) return std::nullopt;
  ByteReader& r = *body;

  StreamCheckpointState state;
  state.fingerprint = expected_fingerprint;
  state.batch = r.read_u64();
  state.source_offset = r.read_u64();
  state.total_transactions = r.read_u64();
  state.min_support_count = r.read_u64();
  state.window_factor = r.read_u32();
  state.reverify_slack = r.read_double();
  state.widenings = r.read_u64();
  state.slack_raises = r.read_u64();
  state.reverifications = r.read_u64();

  const u64 nsupports = r.read_u64();
  state.supports.reserve(nsupports);
  for (u64 i = 0; i < nsupports; ++i) {
    fim::Itemset s = r.read_u32_vec();
    const u64 support = r.read_u64();
    state.supports.emplace_back(std::move(s), support);
  }

  const u64 nfrontier = r.read_u64();
  state.frontier.reserve(nfrontier);
  for (u64 i = 0; i < nfrontier; ++i) {
    state.frontier.push_back(r.read_u32_vec());
  }

  const u64 nbatches = r.read_u64();
  state.batches.reserve(nbatches);
  for (u64 i = 0; i < nbatches; ++i) {
    StreamBatchStats b;
    b.batch = r.read_u64();
    b.transactions = r.read_u64();
    b.new_candidates = r.read_u64();
    b.window_factor = r.read_u32();
    b.sim_seconds = r.read_double();
    state.batches.push_back(b);
  }

  if (!r.done()) return std::nullopt;
  return state;
}

void save_stream_snapshot(fim::CheckpointStore& store,
                          const StreamCheckpointState& state) {
  fim::put_snapshot(store, stream_snapshot_name(state.batch),
                    encode_stream_snapshot(state));
}

std::optional<StreamCheckpointState> load_latest_stream_snapshot(
    fim::CheckpointStore& store, u64 expected_fingerprint, u32* rejected) {
  std::optional<StreamCheckpointState> state;
  fim::probe_latest_snapshot(store, rejected, [&](std::span<const u8> bytes) {
    state = decode_stream_snapshot(bytes, expected_fingerprint);
    return state.has_value();
  });
  return state;
}

}  // namespace yafim::stream
