// byte_size(): estimated serialized size of a value, used to price shuffle
// and broadcast traffic. Customization point: overload byte_size() in the
// type's own namespace, where ADL finds it from these templates, when the
// default (trivially-copyable => sizeof) is wrong. A vector prices only
// arithmetic elements in bulk, so an element's overload holds inside it.
//
// spill_put()/spill_get(): the bytes a spilled shuffle block really holds
// (engine/rdd.h ShuffleSpill), in the layout byte_size() prices: a u64
// length before a vector's elements, a pair's halves back to back.
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

}  // namespace detail

}  // namespace yafim::engine
