// Byte-size formatting and a tiny binary serialization buffer used by the
// simulated filesystem and the MapReduce substrate. The point of real
// serialization (rather than passing pointers around) is fidelity: data that
// "crosses HDFS" in the simulation genuinely round-trips through bytes, so
// encode/decode bugs surface in tests instead of hiding behind shared memory.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace yafim {

/// "12.3 MB"-style human formatting.
std::string format_bytes(u64 bytes);

/// Deterministic byte-level run-length codec for shuffle spill blocks
/// ("yz", for want of a registry). Frame: magic u32 'YZRL', raw size u64,
/// then a token stream of literal runs (control byte 0x00 + u32 length +
/// bytes) and repeat runs (control byte 0x01 + u32 length + 1 byte).
/// Zero-heavy payloads -- sparse per-partition count arrays are mostly
/// zeros -- shrink by orders of magnitude; incompressible payloads grow by
/// only the frame + one literal-run header. The codec is intentionally
/// simple: the simulation prices compression CPU through the cost model,
/// so fidelity lives in the byte accounting, not the compression ratio.
std::vector<u8> yz_compress(std::span<const u8> raw);

/// Inverse of yz_compress. Aborts (CHECK) on a malformed frame -- spilled
/// blocks live on checksummed simfs, so corruption is caught (and repaired
/// or surfaced) a layer below; a bad frame here is a codec bug.
std::vector<u8> yz_decompress(std::span<const u8> compressed);

/// Append-only little-endian binary encoder.
class ByteWriter {
 public:
  void write_u32(u32 v) { write_raw(&v, sizeof(v)); }
  void write_u64(u64 v) { write_raw(&v, sizeof(v)); }
  void write_double(double v) { write_raw(&v, sizeof(v)); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    write_raw(s.data(), s.size());
  }

  void write_u32_vec(const std::vector<u32>& v) {
    write_u64(v.size());
    write_raw(v.data(), v.size() * sizeof(u32));
  }

  const std::vector<u8>& data() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }
  u64 size() const { return buf_.size(); }

 private:
  void write_raw(const void* p, size_t n) {
    const u8* b = static_cast<const u8*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<u8> buf_;
};

/// Sequential decoder over a byte span. Aborts (CHECK) on truncated input --
/// simulated storage is trusted infrastructure, not an untrusted boundary.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  u32 read_u32() { return read_pod<u32>(); }
  u64 read_u64() { return read_pod<u64>(); }
  double read_double() { return read_pod<double>(); }

  std::string read_string() {
    const u64 n = read_u64();
    YAFIM_CHECK(pos_ + n <= data_.size(), "truncated string");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<u32> read_u32_vec() {
    const u64 n = read_u64();
    YAFIM_CHECK(pos_ + n * sizeof(u32) <= data_.size(), "truncated vector");
    std::vector<u32> v(n);
    // An empty vector's data() may be null, which memcpy must not get.
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(u32));
    pos_ += n * sizeof(u32);
    return v;
  }

  bool done() const { return pos_ == data_.size(); }
  u64 position() const { return pos_; }

 private:
  template <typename T>
  T read_pod() {
    YAFIM_CHECK(pos_ + sizeof(T) <= data_.size(), "truncated value");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const u8> data_;
  u64 pos_ = 0;
};

}  // namespace yafim
