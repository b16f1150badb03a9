#include "fim/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "simfs/simfs.h"
#include "util/checksum.h"

namespace yafim::fim {

namespace fs = std::filesystem;

// --- stores --------------------------------------------------------------

CheckpointError::CheckpointError(std::string dir, const std::string& problem)
    : std::runtime_error("checkpoint dir '" + dir + "': " + problem),
      dir_(std::move(dir)) {}

DirCheckpointStore::DirCheckpointStore(std::string dir)
    : dir_(std::move(dir)) {
  if (dir_.empty()) throw CheckpointError(dir_, "empty path");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw CheckpointError(dir_, "cannot create (" + ec.message() + ")");
  // Sweep *.tmp orphans left by a crash between tmp-write and rename.
  // list() already skips them, so they were never parsed, but without the
  // sweep they accumulate forever across crash/resume cycles.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

void DirCheckpointStore::put(const std::string& name,
                             const std::vector<u8>& bytes) {
  const fs::path target = fs::path(dir_) / name;
  const fs::path tmp = fs::path(dir_) / (name + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw CheckpointError(dir_, "cannot open " + tmp.string());
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      throw CheckpointError(dir_, "cannot write " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    throw CheckpointError(dir_, "cannot rename " + tmp.string() + " (" +
                                    ec.message() + ")");
  }
}

std::optional<std::vector<u8>> DirCheckpointStore::get(
    const std::string& name) {
  std::ifstream in(fs::path(dir_) / name, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

std::vector<std::string> DirCheckpointStore::list() {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // Abandoned tmp files from a crash mid-put are not snapshots.
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      continue;
    }
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void DirCheckpointStore::remove(const std::string& name) {
  std::error_code ec;
  fs::remove(fs::path(dir_) / name, ec);
}

SimFSCheckpointStore::SimFSCheckpointStore(simfs::SimFS& fs,
                                           std::string prefix)
    : fs_(fs), prefix_(std::move(prefix)) {
  if (!prefix_.empty() && prefix_.back() != '/') prefix_ += '/';
}

void SimFSCheckpointStore::put(const std::string& name,
                               const std::vector<u8>& bytes) {
  fs_.write(prefix_ + name, bytes);
}

std::optional<std::vector<u8>> SimFSCheckpointStore::get(
    const std::string& name) {
  try {
    return fs_.read(prefix_ + name);
  } catch (const simfs::SimFSError&) {
    return std::nullopt;  // absent, or corrupt beyond replica repair
  }
}

std::vector<std::string> SimFSCheckpointStore::list() {
  std::vector<std::string> names;
  for (const std::string& path : fs_.list(prefix_)) {
    names.push_back(path.substr(prefix_.size()));
  }
  return names;
}

void SimFSCheckpointStore::remove(const std::string& name) {
  fs_.remove(prefix_ + name);
}

// --- snapshot frame --------------------------------------------------------

ByteWriter begin_snapshot(u32 version, u64 fingerprint) {
  ByteWriter w;
  w.write_u32(kSnapshotMagic);
  w.write_u32(version);
  w.write_u64(fingerprint);
  return w;
}

std::vector<u8> seal_snapshot(ByteWriter w) {
  w.write_u64(xxh64(w.data().data(), w.data().size()));
  return w.take();
}

std::optional<ByteReader> open_snapshot(std::span<const u8> bytes, u32 version,
                                        u64 expected_fingerprint) {
  // Validate before parsing: the trailing checksum must match the body, so
  // a torn or flipped snapshot is rejected here, whole.
  constexpr size_t kMinBytes = 4 + 4 + 8 + 8;  // header + trailing checksum
  if (bytes.size() < kMinBytes) return std::nullopt;
  const size_t body = bytes.size() - 8;
  u64 stored_sum;
  std::memcpy(&stored_sum, bytes.data() + body, sizeof(stored_sum));
  if (xxh64(bytes.data(), body) != stored_sum) return std::nullopt;

  ByteReader r(bytes.first(body));
  if (r.read_u32() != kSnapshotMagic || r.read_u32() != version ||
      r.read_u64() != expected_fingerprint) {
    return std::nullopt;
  }
  return r;
}

void put_snapshot(CheckpointStore& store, const std::string& name,
                  const std::vector<u8>& bytes) {
  store.put(name, bytes);
  obs::count(obs::CounterId::kCheckpointsWritten);
  obs::count(obs::CounterId::kCheckpointBytesWritten, bytes.size());
}

void probe_latest_snapshot(
    CheckpointStore& store, u32* rejected,
    const std::function<bool(std::span<const u8>)>& accept) {
  const std::vector<std::string> names = store.list();
  // Fall back past any damaged tail.
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const auto bytes = store.get(*it);
    if (bytes && accept(*bytes)) return;
    if (rejected) ++(*rejected);
    obs::count(obs::CounterId::kCheckpointsRejected);
  }
}

// --- per-pass codec --------------------------------------------------------

u64 checkpoint_fingerprint(std::string_view engine, u64 data_hash,
                           u64 min_support_count, u64 extra) {
  ByteWriter w;
  w.write_string(std::string(engine));
  w.write_u64(data_hash);
  w.write_u64(min_support_count);
  w.write_u64(extra);
  return xxh64(w.data().data(), w.data().size());
}

std::string snapshot_name(u32 pass) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pass-%04u.ck", pass);
  return buf;
}

std::vector<u8> encode_snapshot(const CheckpointState& state) {
  ByteWriter w = begin_snapshot(kSnapshotVersion, state.fingerprint);
  w.write_u32(state.pass);
  w.write_u64(state.num_transactions);
  w.write_u64(state.min_support_count);
  w.write_double(state.setup_seconds);
  w.write_u64(state.aux);

  w.write_u64(state.passes.size());
  for (const PassStats& p : state.passes) {
    w.write_u32(p.k);
    w.write_u64(p.candidates);
    w.write_u64(p.frequent);
    w.write_double(p.sim_seconds);
  }

  // Levels sorted by (size, lex) so identical states encode to identical
  // bytes regardless of hash-map iteration order.
  const auto sorted = state.itemsets.sorted();
  w.write_u64(sorted.size());
  for (const auto& [itemset, support] : sorted) {
    w.write_u32_vec(itemset);
    w.write_u64(support);
  }

  std::vector<Itemset> frontier = state.frontier;
  std::sort(frontier.begin(), frontier.end());
  w.write_u64(frontier.size());
  for (const Itemset& s : frontier) w.write_u32_vec(s);

  return seal_snapshot(std::move(w));
}

std::optional<CheckpointState> decode_snapshot(std::span<const u8> bytes,
                                               u64 expected_fingerprint) {
  std::optional<ByteReader> body =
      open_snapshot(bytes, kSnapshotVersion, expected_fingerprint);
  if (!body) return std::nullopt;
  ByteReader& r = *body;

  CheckpointState state;
  state.fingerprint = expected_fingerprint;
  state.pass = r.read_u32();
  state.num_transactions = r.read_u64();
  state.min_support_count = r.read_u64();
  state.setup_seconds = r.read_double();
  state.aux = r.read_u64();

  const u64 npasses = r.read_u64();
  state.passes.reserve(npasses);
  for (u64 i = 0; i < npasses; ++i) {
    PassStats p;
    p.k = r.read_u32();
    p.candidates = r.read_u64();
    p.frequent = r.read_u64();
    p.sim_seconds = r.read_double();
    state.passes.push_back(p);
  }

  state.itemsets =
      FrequentItemsets(state.min_support_count, state.num_transactions);
  const u64 nsets = r.read_u64();
  for (u64 i = 0; i < nsets; ++i) {
    Itemset s = r.read_u32_vec();
    const u64 support = r.read_u64();
    state.itemsets.add(std::move(s), support);
  }

  const u64 nfrontier = r.read_u64();
  state.frontier.reserve(nfrontier);
  for (u64 i = 0; i < nfrontier; ++i) state.frontier.push_back(r.read_u32_vec());

  if (!r.done()) return std::nullopt;
  return state;
}

void save_snapshot(CheckpointStore& store, const CheckpointState& state) {
  put_snapshot(store, snapshot_name(state.pass), encode_snapshot(state));
}

std::optional<CheckpointState> load_latest_snapshot(CheckpointStore& store,
                                                    u64 expected_fingerprint,
                                                    u32* rejected) {
  std::optional<CheckpointState> state;
  probe_latest_snapshot(store, rejected, [&](std::span<const u8> bytes) {
    state = decode_snapshot(bytes, expected_fingerprint);
    return state.has_value();
  });
  return state;
}

}  // namespace yafim::fim
