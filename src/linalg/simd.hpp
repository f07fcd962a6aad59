// SIMD vector types of the register-tiled kernels (gemm_sum_t and the
// band tiles), written with GCC vector extensions so one source builds
// on every ISA: the vectors are as wide as the build's widest register,
// so a tile maps onto registers one to one (a 64-byte vector built for
// AVX2 is split into pairs and spills).
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace ffw::simd {

#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
typedef double VecD __attribute__((vector_size(kVecBytes)));
typedef float VecF __attribute__((vector_size(kVecBytes)));
typedef float HalfF __attribute__((vector_size(kVecBytes / 2)));

template <typename T>
using Vec = std::conditional_t<std::is_same_v<T, float>, VecF, VecD>;

/// Lanes of one vector of scalar T.
template <typename T>
constexpr std::size_t kLanes = kVecBytes / sizeof(T);

template <typename V>
inline V load(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
inline void store(void* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

namespace detail {
template <typename V, std::size_t... I>
inline V swap_pairs(V v, std::index_sequence<I...>) {
  return __builtin_shufflevector(v, v, (I ^ 1)...);
}
template <std::size_t Off, typename V, std::size_t... I>
inline V zip(V a, V b, std::index_sequence<I...>) {
  constexpr std::size_t kN = sizeof...(I);
  return __builtin_shufflevector(a, b, ((I % 2) * kN + Off + I / 2)...);
}
template <std::size_t Odd, typename V, std::size_t... I>
inline V unzip(V a, V b, std::index_sequence<I...>) {
  return __builtin_shufflevector(a, b, (2 * I + Odd)...);
}
template <std::size_t Odd, typename V, std::size_t... I>
inline V dup(V v, std::index_sequence<I...>) {
  return __builtin_shufflevector(v, v, ((I & ~std::size_t{1}) + Odd)...);
}
template <typename V>
constexpr std::size_t kVecLanes = sizeof(V) / sizeof(V{}[0]);
}  // namespace detail

// Lane shuffles, by __builtin_shufflevector with constant indices (one
// permute instruction each; building a vector element by element from
// scalars compiles to a slow round trip through the stack instead).

/// (v1, v0, v3, v2, ...): swaps the re/im lanes of interleaved complex.
template <typename V>
inline V swap_pairs(V v) {
  return detail::swap_pairs(
      v, std::make_index_sequence<detail::kVecLanes<V>>{});
}

/// (v0, v0, v2, v2, ...) for Odd = 0, (v1, v1, v3, v3, ...) for Odd = 1:
/// the re or im part of interleaved complex, in both lanes of each pair.
template <std::size_t Odd, typename V>
inline V dup(V v) {
  return detail::dup<Odd>(v, std::make_index_sequence<detail::kVecLanes<V>>{});
}

/// Interleaves the lanes of a and b from lane Off on: (a[Off], b[Off],
/// a[Off + 1], b[Off + 1], ...), one vector's worth.
template <std::size_t Off, typename V>
inline V zip(V a, V b) {
  return detail::zip<Off>(a, b,
                          std::make_index_sequence<detail::kVecLanes<V>>{});
}

/// The even (Odd = 0) or odd (Odd = 1) lanes of the concatenation a:b.
template <std::size_t Odd, typename V>
inline V unzip(V a, V b) {
  return detail::unzip<Odd>(a, b,
                            std::make_index_sequence<detail::kVecLanes<V>>{});
}

/// a * b per interleaved complex lane (conj(a) * b for ConjA), as two
/// products and one multiply-add with the re/im swap of b.
template <bool ConjA, typename V>
inline V cmul(V a, V b) {
  const V ib = swap_pairs(b) * zip<0>(V{} - 1, V{} + 1);  // i * b
  const V re = dup<0>(a) * b, im = dup<1>(a) * ib;
  return ConjA ? re - im : re + im;
}

}  // namespace ffw::simd
