// byte_size(): estimated serialized size of a value, used to price shuffle
// and broadcast traffic. Customization point: overload byte_size() in the
// type's own namespace, where ADL finds it from these templates, when the
// default (trivially-copyable => sizeof) is wrong. A vector prices only
// arithmetic elements in bulk, so an element's overload holds inside it.
//
// spill_put()/spill_get(): the bytes a spilled shuffle block really holds
// (engine/rdd.h ShuffleSpill), in the layout byte_size() prices: a u64
// length before a vector's elements, a pair's halves back to back, and a
// sum_arrays partial in the form it ships (ArrayPartial).
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/common.h"

namespace yafim::engine {

template <typename T>
  requires std::is_trivially_copyable_v<T>
constexpr u64 byte_size(const T&) {
  return sizeof(T);
}

inline u64 byte_size(const std::string& s) { return 8 + s.size(); }

// Forward declarations so the recursive cases can see each other regardless
// of nesting order (ADL does not apply: std:: is the associated namespace).
template <typename T>
u64 byte_size(const std::vector<T>& v);
template <typename A, typename B>
u64 byte_size(const std::pair<A, B>& p);

template <typename T>
u64 byte_size(const std::vector<T>& v) {
  u64 total = 8;  // length prefix
  if constexpr (std::is_arithmetic_v<T>) {
    total += v.size() * sizeof(T);
  } else {
    for (const auto& x : v) total += byte_size(x);
  }
  return total;
}

template <typename A, typename B>
u64 byte_size(const std::pair<A, B>& p) {
  return byte_size(p.first) + byte_size(p.second);
}

namespace detail {

// Only the element shapes the engine actually spills need a wire format:
// arithmetic scalars, vectors of spillable elements, and pairs of
// spillable halves. Shuffles over any other type keep the in-memory path
// (`if constexpr (is_spillable_v<T>)` at the call sites).

template <typename T>
struct SpillFormat : std::bool_constant<std::is_arithmetic_v<T>> {};
template <typename E>
struct SpillFormat<std::vector<E>> : SpillFormat<E> {};
template <typename A, typename B>
struct SpillFormat<std::pair<A, B>>
    : std::bool_constant<SpillFormat<A>::value && SpillFormat<B>::value> {};
template <typename T>
inline constexpr bool is_spillable_v = SpillFormat<T>::value;

template <typename T>
  requires std::is_arithmetic_v<T>
void spill_put(std::vector<u8>& out, const T& v);
template <typename E>
void spill_put(std::vector<u8>& out, const std::vector<E>& v);
template <typename A, typename B>
void spill_put(std::vector<u8>& out, const std::pair<A, B>& v);

template <typename T>
  requires std::is_arithmetic_v<T>
void spill_put(std::vector<u8>& out, const T& v) {
  const u8* b = reinterpret_cast<const u8*>(&v);
  out.insert(out.end(), b, b + sizeof(T));
}

template <typename E>
void spill_put(std::vector<u8>& out, const std::vector<E>& v) {
  spill_put(out, static_cast<u64>(v.size()));
  if constexpr (std::is_arithmetic_v<E>) {
    const u8* b = reinterpret_cast<const u8*>(v.data());
    out.insert(out.end(), b, b + v.size() * sizeof(E));
  } else {
    for (const E& e : v) spill_put(out, e);
  }
}

template <typename A, typename B>
void spill_put(std::vector<u8>& out, const std::pair<A, B>& v) {
  spill_put(out, v.first);
  spill_put(out, v.second);
}

template <typename T>
  requires std::is_arithmetic_v<T>
void spill_get(std::span<const u8> in, size_t& pos, T& v);
template <typename E>
void spill_get(std::span<const u8> in, size_t& pos, std::vector<E>& v);
template <typename A, typename B>
void spill_get(std::span<const u8> in, size_t& pos, std::pair<A, B>& v);

template <typename T>
  requires std::is_arithmetic_v<T>
void spill_get(std::span<const u8> in, size_t& pos, T& v) {
  YAFIM_CHECK(pos + sizeof(T) <= in.size(), "spill: truncated block");
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
}

template <typename E>
void spill_get(std::span<const u8> in, size_t& pos, std::vector<E>& v) {
  u64 n = 0;
  spill_get(in, pos, n);
  v.clear();
  if constexpr (std::is_arithmetic_v<E>) {
    YAFIM_CHECK(pos + n * sizeof(E) <= in.size(), "spill: truncated block");
    v.resize(static_cast<size_t>(n));
    std::memcpy(v.data(), in.data() + pos, n * sizeof(E));
    pos += n * sizeof(E);
  } else {
    v.resize(static_cast<size_t>(n));
    for (u64 i = 0; i < n; ++i) spill_get(in, pos, v[i]);
  }
}

template <typename A, typename B>
void spill_get(std::span<const u8> in, size_t& pos, std::pair<A, B>& v) {
  spill_get(in, pos, v.first);
  spill_get(in, pos, v.second);
}

/// One map task's combined sum_arrays partial in the form it ships
/// (engine/rdd.h): dense, every cell behind a u64 length as a vector
/// spills; or sparse, a u64 header (kSparse | entry count), the ascending
/// u32 ids of the nonzero cells, then their values. A partial ships sparse
/// only when that is strictly smaller.
template <typename E>
struct ArrayPartial {
  static constexpr u64 kSparse = u64{1} << 63;

  std::vector<E> cells;  ///< dense: every cell; sparse: the ids' values
  std::vector<u32> ids;  ///< sparse only
  bool sparse = false;

  static u64 dense_bytes(u64 width) { return 8 + width * sizeof(E); }
  static u64 sparse_bytes(u64 entries) {
    return 8 + entries * (sizeof(u32) + sizeof(E));
  }
  static bool ships_sparse(u64 width, u64 entries) {
    return width <= (u64{1} << 32) &&
           sparse_bytes(entries) < dense_bytes(width);
  }
};

template <typename E>
void spill_put(std::vector<u8>& out, const ArrayPartial<E>& p) {
  if (!p.sparse) {
    spill_put(out, p.cells);
    return;
  }
  spill_put(out, static_cast<u64>(ArrayPartial<E>::kSparse | p.ids.size()));
  const u8* ids = reinterpret_cast<const u8*>(p.ids.data());
  out.insert(out.end(), ids, ids + p.ids.size() * sizeof(u32));
  const u8* cells = reinterpret_cast<const u8*>(p.cells.data());
  out.insert(out.end(), cells, cells + p.cells.size() * sizeof(E));
}

template <typename E>
void spill_get(std::span<const u8> in, size_t& pos, ArrayPartial<E>& p) {
  u64 header = 0;
  spill_get(in, pos, header);
  p.sparse = (header & ArrayPartial<E>::kSparse) != 0;
  const u64 n = header & ~ArrayPartial<E>::kSparse;
  p.ids.clear();
  if (p.sparse) {
    YAFIM_CHECK(pos + n * sizeof(u32) <= in.size(), "spill: truncated block");
    p.ids.resize(static_cast<size_t>(n));
    std::memcpy(p.ids.data(), in.data() + pos, n * sizeof(u32));
    pos += n * sizeof(u32);
  }
  YAFIM_CHECK(pos + n * sizeof(E) <= in.size(), "spill: truncated block");
  p.cells.resize(static_cast<size_t>(n));
  std::memcpy(p.cells.data(), in.data() + pos, n * sizeof(E));
  pos += n * sizeof(E);
}

}  // namespace detail

}  // namespace yafim::engine
