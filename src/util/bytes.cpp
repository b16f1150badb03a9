#include "util/bytes.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace yafim {

namespace {
constexpr u32 kYzMagic = 0x4C525A59;  // "YZRL"
constexpr u8 kYzLiteral = 0x00;
constexpr u8 kYzRepeat = 0x01;
// Repeat runs shorter than this lose to a literal run (control + u32 + byte
// = 6 bytes per token vs. 1 byte per literal element once inside a run).
constexpr u64 kMinRepeatRun = 8;

// resize + memcpy rather than a range insert from the value's address: GCC
// 12 misreads that insert as an overflowing copy (-Wstringop-overflow).
template <typename T>
void put_pod(std::vector<u8>& out, T v) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
T take_pod(std::span<const u8> data, u64& pos) {
  YAFIM_CHECK(pos + sizeof(T) <= data.size(), "yz: truncated frame");
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}
}  // namespace

std::vector<u8> yz_compress(std::span<const u8> raw) {
  std::vector<u8> out;
  put_pod<u32>(out, kYzMagic);
  put_pod<u64>(out, raw.size());
  u64 i = 0;
  u64 lit_start = 0;
  auto flush_literals = [&](u64 end) {
    while (lit_start < end) {
      const u64 n = std::min<u64>(end - lit_start, 0xffffffffull);
      out.push_back(kYzLiteral);
      put_pod<u32>(out, static_cast<u32>(n));
      out.insert(out.end(), raw.data() + lit_start, raw.data() + lit_start + n);
      lit_start += n;
    }
  };
  while (i < raw.size()) {
    u64 run = 1;
    while (i + run < raw.size() && raw[i + run] == raw[i] &&
           run < 0xffffffffull) {
      ++run;
    }
    if (run >= kMinRepeatRun) {
      flush_literals(i);
      out.push_back(kYzRepeat);
      put_pod<u32>(out, static_cast<u32>(run));
      out.push_back(raw[i]);
      i += run;
      lit_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(raw.size());
  return out;
}

std::vector<u8> yz_decompress(std::span<const u8> compressed) {
  u64 pos = 0;
  YAFIM_CHECK(take_pod<u32>(compressed, pos) == kYzMagic, "yz: bad magic");
  const u64 raw_size = take_pod<u64>(compressed, pos);
  std::vector<u8> out;
  out.reserve(raw_size);
  while (out.size() < raw_size) {
    const u8 ctl = take_pod<u8>(compressed, pos);
    const u32 n = take_pod<u32>(compressed, pos);
    if (ctl == kYzLiteral) {
      YAFIM_CHECK(pos + n <= compressed.size(), "yz: truncated literal run");
      out.insert(out.end(), compressed.data() + pos, compressed.data() + pos + n);
      pos += n;
    } else {
      YAFIM_CHECK(ctl == kYzRepeat, "yz: bad control byte");
      const u8 v = take_pod<u8>(compressed, pos);
      out.insert(out.end(), n, v);
    }
  }
  YAFIM_CHECK(out.size() == raw_size, "yz: decoded size mismatch");
  return out;
}

std::string format_bytes(u64 bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

}  // namespace yafim
