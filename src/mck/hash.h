// Hash utilities for model states. A state whose fields are all plain bytes
// (every screening model: S1Model-S4Model, CombinedModel) hashes its object
// representation directly with HashBytes, eight bytes at a time, the way
// SPIN hashes its state vector. HashBytes only accepts types without padding
// (a padded state fails to compile), so equal states always hash equal.
// Models with padding or indirection build their HashValue from Hasher's
// per-field combinators instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace cnv::mck {

// Murmur3's 64-bit finalizer: every input bit affects every output bit, so
// the low bits that pick an intern-table slot are well mixed.
inline std::uint64_t Fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// 64-bit FNV-1a based combiner with avalanche mixing.
class Hasher {
 public:
  Hasher() = default;

  Hasher& Mix(std::uint64_t v) {
    state_ ^= v + 0x9e3779b97f4a7c15ULL + (state_ << 6) + (state_ >> 2);
    return *this;
  }

  template <typename E>
    requires std::is_enum_v<E>
  Hasher& Mix(E e) {
    return Mix(static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<E>>(e)));
  }

  Hasher& Mix(bool b) { return Mix(static_cast<std::uint64_t>(b ? 1 : 0)); }
  Hasher& Mix(std::int64_t v) { return Mix(static_cast<std::uint64_t>(v)); }
  Hasher& Mix(int v) { return Mix(static_cast<std::uint64_t>(v)); }
  Hasher& Mix(unsigned v) { return Mix(static_cast<std::uint64_t>(v)); }
  Hasher& Mix(std::uint8_t v) { return Mix(static_cast<std::uint64_t>(v)); }

  std::size_t Digest() const {
    return static_cast<std::size_t>(Fmix64(state_));
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// Hashes the object representation of `s`: one multiply-rotate step per
// eight-byte word (the tail word zero-extended), then Fmix64. The word
// products do not depend on the running hash, so only the rotate-multiply
// chain is serial.
template <typename S>
  requires std::is_trivially_copyable_v<S> &&
           std::has_unique_object_representations_v<S>
std::size_t HashBytes(const S& s) {
  constexpr std::uint64_t kWordMul = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kChainMul = 0xbf58476d1ce4e5b9ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(&s);
  std::uint64_t h = 0xcbf29ce484222325ULL ^ sizeof(S);
  const auto step = [&h](std::uint64_t word) {
    h ^= word * kWordMul;
    h = ((h << 29) | (h >> 35)) * kChainMul;
  };
  std::size_t i = 0;
  for (; i + 8 <= sizeof(S); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    step(word);
  }
  if constexpr (sizeof(S) % 8 != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof(S) % 8);
    step(word);
  }
  return static_cast<std::size_t>(Fmix64(h));
}

}  // namespace cnv::mck
