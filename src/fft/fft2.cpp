#include "fft/fft2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <list>
#include <mutex>
#include <numbers>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "linalg/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Branch-free complex multiply (std::complex operator* calls the
/// __muldc3 NaN-recovery routine at these optimization settings).
template <typename T>
inline std::complex<T> cmul(std::complex<T> a, std::complex<T> b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Twiddle/chirp phases are always evaluated in double and narrowed to
/// the plan's storage scalar, so fp32 plans carry full-accuracy tables.
template <typename T>
std::complex<T> unit_phase(double ang) {
  return {static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang))};
}

// ---- Butterflies ----
//
// Complex values are interleaved (re, im) in a vector: simd::Vec<T>, as
// wide as the build's registers, or Cx<T>, one complex value (line tails
// and rows shorter than two vectors). A twiddle w comes pre-expanded as
// a = (Re w, Re w) and b = (-Im w, Im w) per complex lane, so v * w is
// two lane-wise products and one in-lane re/im swap, and v * conj(w)
// flips the sign of the second product: one table serves the forward
// (w = e^{-2 pi i j / L}) and the inverse (conj w).

typedef double Cx64 __attribute__((vector_size(16)));
typedef float Cx32 __attribute__((vector_size(8)));
template <typename T>
using Cx = std::conditional_t<std::is_same_v<T, float>, Cx32, Cx64>;

template <typename V>
using Scalar = std::remove_cvref_t<decltype(std::declval<V>()[0])>;

/// Complex values per vector.
template <typename V>
constexpr std::size_t kCplx = sizeof(V) / (2 * sizeof(Scalar<V>));

template <typename V>
inline V splat(Scalar<V> s) {
  return V{} + s;
}

/// (-1, 1, -1, 1, ...).
template <typename V>
inline V alt() {
  return simd::zip<0>(splat<V>(-1), splat<V>(1));
}

template <typename V>
struct Tw {
  V a, b;
};

/// v * w, or v * conj(w) for Conj.
template <bool Conj, typename V>
inline V twiddle(V v, const Tw<V>& w) {
  const V s = simd::swap_pairs(v);
  if constexpr (Conj) {
    return v * w.a - s * w.b;
  } else {
    return v * w.a + s * w.b;
  }
}

/// v * (-i), or v * i for Conj.
template <bool Conj, typename V>
inline V rot(V v) {
  return simd::swap_pairs(v) * (Conj ? alt<V>() : -alt<V>());
}

/// Twiddles j, j + 1, ... of a pre-expanded table, one per lane.
template <typename V, typename T>
inline Tw<V> tw_load(const T* a, const T* b, std::size_t j) {
  return {simd::load<V>(a + 2 * j), simd::load<V>(b + 2 * j)};
}

/// Twiddle j of a pre-expanded table in every lane.
template <typename V, typename T>
inline Tw<V> tw_splat(const T* a, const T* b, std::size_t j) {
  return {splat<V>(a[2 * j]), splat<V>(b[2 * j + 1]) * alt<V>()};
}

/// The three twiddles w^j, w^2j, w^3j of a radix-4 stage table (see
/// Fft1Plan::r4_table) with quarter length q.
template <typename V, bool Splat, typename T>
inline void r4_twiddles(const T* t, std::size_t q, std::size_t j, Tw<V>* w) {
  for (std::size_t m = 0; m < 3; ++m) {
    const T* a = t + 4 * m * q;
    w[m] = Splat ? tw_splat<V>(a, a + 2 * q, j) : tw_load<V>(a, a + 2 * q, j);
  }
}

/// Radix-4 decimation-in-frequency butterfly (two radix-2 stages) on
/// the values at quarter-block offsets 0, q, 2q, 3q, with w = (w^j,
/// w^2j, w^3j). HalfZero: x2 and x3 are zero and are not read.
template <bool HalfZero, typename V>
inline void r4_dif(V& x0, V& x1, V& x2, V& x3, const Tw<V>* w) {
  V t0 = x0, t1 = x0, t2 = x1, t3 = rot<false>(x1);
  if constexpr (!HalfZero) {
    t0 = x0 + x2;
    t1 = x0 - x2;
    t2 = x1 + x3;
    t3 = rot<false>(x1 - x3);
  }
  x0 = t0 + t2;
  x1 = twiddle<false>(t0 - t2, w[1]);
  x2 = twiddle<false>(t1 + t3, w[0]);
  x3 = twiddle<false>(t1 - t3, w[2]);
}

/// Radix-4 decimation-in-time butterfly, with the conjugate twiddles.
template <typename V>
inline void r4_dit(V& x0, V& x1, V& x2, V& x3, const Tw<V>* w) {
  const V b1 = twiddle<true>(x1, w[1]);
  const V b2 = twiddle<true>(x2, w[0]);
  const V b3 = twiddle<true>(x3, w[2]);
  const V a0 = x0 + b1, a1 = x0 - b1;
  const V s = b2 + b3, e = rot<true>(b2 - b3);
  x0 = a0 + s;
  x1 = a1 + e;
  x2 = a0 - s;
  x3 = a1 - e;
}

/// Radix-4 butterfly on the vectors at p0..p3: DIF (pruned: p2 and p3
/// are zero and not read) or DIT (pruned: only p0 and p1 are written).
template <bool Dif, bool Pruned, typename V, typename T>
inline void r4_at(T* p0, T* p1, T* p2, T* p3, const Tw<V>* w) {
  V x0 = simd::load<V>(p0), x1 = simd::load<V>(p1), x2{}, x3{};
  if constexpr (!(Dif && Pruned)) {
    x2 = simd::load<V>(p2);
    x3 = simd::load<V>(p3);
  }
  if constexpr (Dif) {
    r4_dif<Pruned>(x0, x1, x2, x3, w);
  } else {
    r4_dit(x0, x1, x2, x3, w);
  }
  simd::store(p0, x0);
  simd::store(p1, x1);
  if constexpr (Dif || !Pruned) {
    simd::store(p2, x2);
    simd::store(p3, x3);
  }
}

/// Radix-2 butterfly on the vectors at p0, p1: DIF (a, b) <- (a + b,
/// (a - b) w), pruned (b zero, not read): (a, a w); DIT (a, b) <- (a +
/// conj(w) b, a - conj(w) b), pruned: only a is written.
template <bool Dif, bool Pruned, typename V, typename T>
inline void r2_at(T* p0, T* p1, const Tw<V>& w) {
  const V a = simd::load<V>(p0);
  if constexpr (Dif && Pruned) {
    simd::store(p1, twiddle<false>(a, w));
  } else if constexpr (Dif) {
    const V b = simd::load<V>(p1);
    simd::store(p0, a + b);
    simd::store(p1, twiddle<false>(a - b, w));
  } else {
    const V b = twiddle<true>(simd::load<V>(p1), w);
    simd::store(p0, a + b);
    if constexpr (!Pruned) simd::store(p1, a - b);
  }
}

// In-register stages: a radix-2 stage whose butterfly distance D is
// shorter than the vector pairs complex lane k with lane k ^ D. The
// lower lane gets a + b and the upper a - b (one lane swap and one
// multiply-add by a +-1 pattern); DIF then multiplies the upper lanes by
// their twiddles, DIT multiplies before. Stage D's twiddle vectors are
// the plan's lane table (D >= 2; D = 1 has only w = 1).

template <std::size_t D, typename V, std::size_t... S>
inline V lane_partner(V v, std::index_sequence<S...>) {
  return __builtin_shufflevector(v, v, (S ^ (2 * D))...);
}

template <std::size_t D, typename V, std::size_t... S>
inline V lane_sign(std::index_sequence<S...>) {
  constexpr std::size_t kN = sizeof...(S);
  return __builtin_shufflevector(splat<V>(1), splat<V>(-1),
                                 (((S / 2) & D) ? kN + S : S)...);
}

/// Offset of stage D's twiddle vectors in the lane table.
template <typename V>
constexpr std::size_t lane_table_at(std::size_t d) {
  return 4 * kCplx<V> * (static_cast<std::size_t>(std::countr_zero(d)) - 1);
}

template <std::size_t D, bool Dit, typename V, typename T>
inline V lane_stage(V v, const T* tab) {
  using Lanes = std::make_index_sequence<2 * kCplx<V>>;
  if constexpr (Dit && D > 1) {
    const T* t = tab + lane_table_at<V>(D);
    v = twiddle<true>(v, tw_load<V>(t, t + 2 * kCplx<V>, 0));
  }
  v = v * lane_sign<D, V>(Lanes{}) + lane_partner<D>(v, Lanes{});
  if constexpr (!Dit && D > 1) {
    const T* t = tab + lane_table_at<V>(D);
    v = twiddle<false>(v, tw_load<V>(t, t + 2 * kCplx<V>, 0));
  }
  return v;
}

/// Stages D, D/2, ..., 1 in the direction's order (DIF from the longest
/// distance down, DIT from 1 up).
template <std::size_t D, bool Dit, typename V, typename T>
inline V lane_stages(V v, const T* tab) {
  if constexpr (D == 0) {
    return v;
  } else if constexpr (Dit) {
    return lane_stage<D, Dit>(lane_stages<D / 2, Dit>(v, tab), tab);
  } else {
    return lane_stages<D / 2, Dit>(lane_stage<D, Dit>(v, tab), tab);
  }
}

/// Calls f(std::true_type) or f(std::false_type): hoists a per-call flag
/// into a template argument of the butterfly loops.
template <typename F>
inline void with_flag(bool flag, F&& f) {
  if (flag) {
    f(std::true_type{});
  } else {
    f(std::false_type{});
  }
}

}  // namespace

template <typename T>
Fft1Plan<T>::Fft1Plan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  FFW_CHECK_MSG(n >= 1, "Fft1Plan length must be positive");
  if (n_ <= 1) return;
  if (pow2_) {
    bitrev_.resize(n_);
    for (std::size_t i = 1, j = 0; i < n_; ++i) {
      std::size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = static_cast<std::uint32_t>(j);
    }
    // Appends twiddles e^{-2 pi i k_m / len} for k_0, k_1, ... as a
    // (Re, Re) array then a (-Im, Im) array.
    auto expand = [&](std::size_t count, std::size_t len, auto k_of) {
      const std::size_t at = tw_.size();
      tw_.resize(at + 4 * count);
      for (std::size_t m = 0; m < count; ++m) {
        const std::complex<T> w = unit_phase<T>(
            -2.0 * std::numbers::pi * static_cast<double>(k_of(m)) /
            static_cast<double>(len));
        tw_[at + 2 * m] = tw_[at + 2 * m + 1] = w.real();
        tw_[at + 2 * count + 2 * m] = -w.imag();
        tw_[at + 2 * count + 2 * m + 1] = w.imag();
      }
    };
    r4_off_.assign(static_cast<std::size_t>(std::countr_zero(n_)) + 1, 0);
    for (std::size_t len = 4; len <= n_; len <<= 1) {
      r4_off_[static_cast<std::size_t>(std::countr_zero(len))] = tw_.size();
      for (std::size_t m = 1; m <= 3; ++m) {
        expand(len / 4, len, [m](std::size_t j) { return m * j; });
      }
    }
    r2_off_ = tw_.size();
    expand(n_ / 2, n_, [](std::size_t j) { return j; });
    // Lane twiddles of the in-register stages D = 2, 4, ... < C: lane k
    // of stage D carries e^{-2 pi i (k mod D) / 2D} when k & D, else 1.
    lane_off_ = tw_.size();
    constexpr std::size_t kC = kCplx<simd::Vec<T>>;
    for (std::size_t d = 2; d < kC; d <<= 1) {
      expand(kC, 2 * d, [d](std::size_t k) { return (k & d) ? k % d : 0; });
    }
    return;
  }
  // Bluestein: DFT of length n as a circular convolution of length
  // m = bit_ceil(2n - 1) with the chirp c_k = e^{sign i pi k^2 / n}.
  const std::size_t m = std::bit_ceil(2 * n_ - 1);
  inner_ = std::make_unique<Fft1Plan<T>>(m);
  chirp_fwd_.resize(n_);
  chirp_inv_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the phase argument small for large n.
    const std::size_t k2 = (k * k) % (2 * n_);
    const double ang = std::numbers::pi * static_cast<double>(k2) /
                       static_cast<double>(n_);
    chirp_fwd_[k] = unit_phase<T>(-ang);
    chirp_inv_[k] = unit_phase<T>(ang);
  }
  auto build_bhat = [&](const std::vector<std::complex<T>>& chirp) {
    std::vector<std::complex<T>> b(m, std::complex<T>{});
    b[0] = std::conj(chirp[0]);
    for (std::size_t k = 1; k < n_; ++k) b[k] = b[m - k] = std::conj(chirp[k]);
    inner_->forward(std::span<std::complex<T>>{b});
    return b;
  };
  bhat_fwd_ = build_bhat(chirp_fwd_);
  bhat_inv_ = build_bhat(chirp_inv_);
}

template <typename T>
const T* Fft1Plan<T>::r4_table(std::size_t len) const {
  return tw_.data() + r4_off_[static_cast<std::size_t>(std::countr_zero(len))];
}

// A contiguous row of n complex values: the stages of butterfly distance
// >= C (complex lanes per vector) load their twiddles lane by lane; the
// log2 C shorter ones run in-register on each vector. The radix-2 stage
// (when the count of vector stages is odd) sits at the length-n end.
template <typename T>
template <typename V>
void Fft1Plan<T>::dif_row(std::complex<T>* xc, bool half_zero) const {
  constexpr std::size_t kC = kCplx<V>;
  T* x = reinterpret_cast<T*>(xc);
  const std::size_t n = n_;
  std::size_t len = n;
  if (std::countr_zero(n / kC) & 1) {
    const std::size_t h = n / 2;
    const T* a = tw_.data() + r2_off_;
    with_flag(half_zero, [&](auto hz) {
      for (std::size_t j = 0; j < h; j += kC) {
        r2_at<true, hz()>(x + 2 * j, x + 2 * (j + h), tw_load<V>(a, a + n, j));
      }
    });
    len = h;
    half_zero = false;
  }
  for (; len >= 4 * kC; len /= 4, half_zero = false) {
    const std::size_t q = len / 4;
    const T* t = r4_table(len);
    with_flag(half_zero, [&](auto hz) {
      for (std::size_t b = 0; b < n; b += len) {
        for (std::size_t j = 0; j < q; j += kC) {
          Tw<V> w[3];
          r4_twiddles<V, false>(t, q, j, w);
          T* p = x + 2 * (b + j);
          r4_at<true, hz()>(p, p + 2 * q, p + 4 * q, p + 6 * q, w);
        }
      }
    });
  }
  if constexpr (kC > 1) {
    const T* tab = tw_.data() + lane_off_;
    for (std::size_t i = 0; i < 2 * n; i += 2 * kC) {
      simd::store(x + i,
                  lane_stages<kC / 2, false>(simd::load<V>(x + i), tab));
    }
  }
}

template <typename T>
template <typename V>
void Fft1Plan<T>::dit_row(std::complex<T>* xc, bool half_out) const {
  constexpr std::size_t kC = kCplx<V>;
  T* x = reinterpret_cast<T*>(xc);
  const std::size_t n = n_;
  if constexpr (kC > 1) {
    const T* tab = tw_.data() + lane_off_;
    for (std::size_t i = 0; i < 2 * n; i += 2 * kC) {
      simd::store(x + i, lane_stages<kC / 2, true>(simd::load<V>(x + i), tab));
    }
  }
  const bool odd = std::countr_zero(n / kC) & 1;
  for (std::size_t len = 4 * kC; len <= (odd ? n / 2 : n); len *= 4) {
    const std::size_t q = len / 4;
    const T* t = r4_table(len);
    with_flag(half_out && len == n, [&](auto ho) {
      for (std::size_t b = 0; b < n; b += len) {
        for (std::size_t j = 0; j < q; j += kC) {
          Tw<V> w[3];
          r4_twiddles<V, false>(t, q, j, w);
          T* p = x + 2 * (b + j);
          r4_at<false, ho()>(p, p + 2 * q, p + 4 * q, p + 6 * q, w);
        }
      }
    });
  }
  if (odd) {
    const std::size_t h = n / 2;
    const T* a = tw_.data() + r2_off_;
    with_flag(half_out, [&](auto ho) {
      for (std::size_t j = 0; j < h; j += kC) {
        r2_at<false, ho()>(x + 2 * j, x + 2 * (j + h), tw_load<V>(a, a + n, j));
      }
    });
  }
}

// Strided lines: every stage runs across the lines' scalars [c0, c1)
// with one twiddle per butterfly broadcast to all lanes, so all stages
// are vector stages. The line traffic, not the arithmetic, bounds these
// passes, so where it can a sweep applies two radix-4 stages (len, then
// len/4 for DIF) to 16 lines held in registers. It can when those lines
// do not all fall in the same L1 sets: lines a multiple of
// kL1WayBytes apart do, and 16 of them overflow the ways (a padded row
// pitch, Fft2Plan::pitch(), spreads them). In DIF order the sweeps are:
// the radix-2 stage of length n (odd log2 n), then radix-4 pairs or
// single stages down to length 4. DIT runs the same sweeps in reverse
// order with the mirrored butterflies.
template <typename T>
template <typename V>
void Fft1Plan<T>::lines(T* d, std::size_t pitch, std::size_t c0,
                        std::size_t c1, bool dif, bool half) const {
  constexpr std::size_t kL = 2 * kCplx<V>;
  constexpr std::size_t kL1WayBytes = 4096;  // 64 sets x 64-byte lines
  const std::size_t n = n_;
  auto line = [d, pitch](std::size_t k) { return d + k * pitch; };
  struct Sweep {
    std::size_t radix, len;
  };
  Sweep sweeps[64];
  std::size_t count = 0;
  std::size_t len = n;
  if (std::countr_zero(n) & 1) {
    sweeps[count++] = {2, n};
    len = n / 2;
  }
  while (len >= 4) {
    if (len >= 16 && (len / 16 * pitch * sizeof(T)) % kL1WayBytes != 0) {
      sweeps[count++] = {16, len};
      len /= 16;
    } else {
      sweeps[count++] = {4, len};
      len /= 4;
    }
  }

  auto run = [&](const Sweep& sw, auto dif_c, auto pruned_c) {
    constexpr bool kDif = dif_c(), kPruned = pruned_c();
    const std::size_t cb = c0, ce = c1;
    if (sw.radix == 2) {
      const std::size_t h = n / 2;
      const T* a = tw_.data() + r2_off_;
      for (std::size_t j = 0; j < h; ++j) {
        const Tw<V> w = tw_splat<V>(a, a + n, j);
        T* l0 = line(j);
        T* l1 = line(j + h);
        for (std::size_t c = cb; c < ce; c += kL) {
          r2_at<kDif, kPruned>(l0 + c, l1 + c, w);
        }
      }
      return;
    }
    const std::size_t q = sw.len / 4;
    const T* t = r4_table(sw.len);
    if (sw.radix == 4) {
      for (std::size_t b = 0; b < n; b += sw.len) {
        for (std::size_t j = 0; j < q; ++j) {
          Tw<V> w[3];
          r4_twiddles<V, true>(t, q, j, w);
          T* l0 = line(b + j);
          T* l1 = line(b + j + q);
          T* l2 = line(b + j + 2 * q);
          T* l3 = line(b + j + 3 * q);
          for (std::size_t c = cb; c < ce; c += kL) {
            r4_at<kDif, kPruned>(l0 + c, l1 + c, l2 + c, l3 + c, w);
          }
        }
      }
      return;
    }
    // Lines b + j + m s + k q (m, k < 4): stage len runs over k for each
    // m (twiddle index j + m s), stage len/4 over m for each k (index j).
    const std::size_t s = q / 4;
    const T* t4 = r4_table(q);
    const std::size_t ms = s * pitch, kq = q * pitch;
    for (std::size_t b = 0; b < n; b += sw.len) {
      for (std::size_t j = 0; j < s; ++j) {
        Tw<V> w[5][3];
        for (std::size_t m = 0; m < 4; ++m) {
          r4_twiddles<V, true>(t, q, j + m * s, w[m]);
        }
        r4_twiddles<V, true>(t4, s, j, w[4]);
        T* l0 = line(b + j);
        for (std::size_t c = cb; c < ce; c += kL) {
          T* p = l0 + c;
          // Fully unrolled, so that x lives in registers.
          V x[16]{};
#pragma GCC unroll 16
          for (std::size_t i = 0; i < 16; ++i) {
            if (!(kDif && kPruned && i % 4 >= 2)) {
              x[i] = simd::load<V>(p + i / 4 * ms + i % 4 * kq);
            }
          }
          if constexpr (kDif) {
#pragma GCC unroll 4
            for (std::size_t m = 0; m < 4; ++m) {
              r4_dif<kPruned>(x[4 * m], x[4 * m + 1], x[4 * m + 2],
                              x[4 * m + 3], w[m]);
            }
#pragma GCC unroll 4
            for (std::size_t k = 0; k < 4; ++k) {
              r4_dif<false>(x[k], x[4 + k], x[8 + k], x[12 + k], w[4]);
            }
          } else {
#pragma GCC unroll 4
            for (std::size_t k = 0; k < 4; ++k) {
              r4_dit(x[k], x[4 + k], x[8 + k], x[12 + k], w[4]);
            }
#pragma GCC unroll 4
            for (std::size_t m = 0; m < 4; ++m) {
              r4_dit(x[4 * m], x[4 * m + 1], x[4 * m + 2], x[4 * m + 3],
                     w[m]);
            }
          }
#pragma GCC unroll 16
          for (std::size_t i = 0; i < 16; ++i) {
            if (!(!kDif && kPruned && i % 4 >= 2)) {
              simd::store(p + i / 4 * ms + i % 4 * kq, x[i]);
            }
          }
        }
      }
    }
  };
  // DIF prunes its first sweep, DIT its last: both are sweeps[0].
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t at = dif ? i : count - 1 - i;
    with_flag(dif, [&](auto dif_c) {
      with_flag(half && at == 0, [&](auto pruned_c) {
        run(sweeps[at], dif_c, pruned_c);
      });
    });
  }
}

template <typename T>
void Fft1Plan<T>::dif(std::complex<T>* x, bool half_zero) const {
  FFW_DCHECK(pow2_);
  if (n_ <= 1) return;
  using V = simd::Vec<T>;
  if (n_ >= 2 * kCplx<V>) {
    dif_row<V>(x, half_zero);
  } else {
    dif_row<Cx<T>>(x, half_zero);
  }
}

template <typename T>
void Fft1Plan<T>::dit(std::complex<T>* x, bool half_out) const {
  FFW_DCHECK(pow2_);
  if (n_ <= 1) return;
  using V = simd::Vec<T>;
  if (n_ >= 2 * kCplx<V>) {
    dit_row<V>(x, half_out);
  } else {
    dit_row<Cx<T>>(x, half_out);
  }
}

template <typename T>
void Fft1Plan<T>::dif_lines(std::complex<T>* data, std::size_t pitch,
                            std::size_t width, bool half_zero) const {
  across(data, pitch, width, /*dif=*/true, half_zero);
}

template <typename T>
void Fft1Plan<T>::dit_lines(std::complex<T>* data, std::size_t pitch,
                            std::size_t width, bool half_out) const {
  across(data, pitch, width, /*dif=*/false, half_out);
}

template <typename T>
void Fft1Plan<T>::across(std::complex<T>* data, std::size_t pitch,
                         std::size_t width, bool dif, bool half) const {
  FFW_DCHECK(pow2_);
  if (n_ <= 1) return;
  // Full vectors across the width, then the tail one complex value at a
  // time: each column of the lines is an independent transform.
  constexpr std::size_t kL = simd::kLanes<T>;
  T* d = reinterpret_cast<T*>(data);
  const std::size_t ws = 2 * width, wv = ws / kL * kL;
  if (wv > 0) lines<simd::Vec<T>>(d, 2 * pitch, 0, wv, dif, half);
  if (wv < ws) lines<Cx<T>>(d, 2 * pitch, wv, ws, dif, half);
}

template <typename T>
void Fft1Plan<T>::permute(std::complex<T>* data, std::size_t pitch,
                          std::size_t width) const {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      std::swap_ranges(data + i * pitch, data + i * pitch + width,
                       data + j * pitch);
    }
  }
}

template <typename T>
void Fft1Plan<T>::transform_lines(std::complex<T>* data, std::size_t pitch,
                                  std::size_t width, bool fwd) const {
  FFW_DCHECK(pow2_);
  if (n_ <= 1) return;
  if (fwd) {
    dif_lines(data, pitch, width);
    permute(data, pitch, width);
    return;
  }
  permute(data, pitch, width);
  dit_lines(data, pitch, width);
  const T inv = static_cast<T>(1.0 / static_cast<double>(n_));
  for (std::size_t r = 0; r < n_; ++r) {
    T* p = reinterpret_cast<T*>(data + r * pitch);
    for (std::size_t c = 0; c < 2 * width; ++c) p[c] *= inv;
  }
}

template <typename T>
void Fft1Plan<T>::bluestein_transform(std::span<std::complex<T>> x,
                                      bool fwd) const {
  const std::size_t n = n_;
  const std::size_t m = inner_->size();
  const auto& chirp = fwd ? chirp_fwd_ : chirp_inv_;
  const auto& bhat = fwd ? bhat_fwd_ : bhat_inv_;
  std::vector<std::complex<T>> a(m, std::complex<T>{});
  for (std::size_t k = 0; k < n; ++k) a[k] = cmul(x[k], chirp[k]);
  inner_->forward(std::span<std::complex<T>>{a});
  for (std::size_t k = 0; k < m; ++k) a[k] = cmul(a[k], bhat[k]);
  inner_->inverse(std::span<std::complex<T>>{a});  // includes the 1/m
  for (std::size_t k = 0; k < n; ++k) x[k] = cmul(a[k], chirp[k]);
}

template <typename T>
void Fft1Plan<T>::forward(std::span<std::complex<T>> x) const {
  FFW_DCHECK(x.size() == n_);
  if (n_ <= 1) return;
  if (pow2_) {
    dif(x.data());
    permute(x.data(), 1, 1);
  } else {
    bluestein_transform(x, /*fwd=*/true);
  }
}

template <typename T>
void Fft1Plan<T>::inverse(std::span<std::complex<T>> x) const {
  FFW_DCHECK(x.size() == n_);
  if (n_ <= 1) return;
  if (pow2_) {
    permute(x.data(), 1, 1);
    dit(x.data());
  } else {
    bluestein_transform(x, /*fwd=*/false);
  }
  const T inv = static_cast<T>(1.0 / static_cast<double>(n_));
  for (auto& v : x) v *= inv;
}

template <typename T>
Fft2Plan<T>::Fft2Plan(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), pitch_(cols), row_plan_(cols), col_plan_(rows) {
  FFW_CHECK_MSG(rows >= 1 && cols >= 1, "Fft2Plan needs positive extents");
  // Two cache lines of padding per row: lines a power-of-two row count
  // apart then fall in different L1 sets, which lets the column pass
  // hold 16 of them per sweep (Fft1Plan::dif_lines).
  if (row_plan_.radix2() && col_plan_.radix2() && rows_ >= 16) {
    pitch_ += 128 / sizeof(std::complex<T>);
  }
}

template <typename T>
void Fft2Plan<T>::row_pass(std::complex<T>* base, std::size_t count,
                           bool fwd) const {
  // Every (panel, row) line is contiguous.
  parallel_for(0, count * rows_, [&](std::size_t i) {
    std::span<std::complex<T>> row{base + i * cols_, cols_};
    if (fwd) {
      row_plan_.forward(row);
    } else {
      row_plan_.inverse(row);  // contributes the 1/cols factor
    }
  });
}

template <typename T>
void Fft2Plan<T>::col_pass(std::complex<T>* base, std::size_t count,
                           bool fwd) const {
  // Bluestein row counts: gather each (panel, column) into a contiguous
  // scratch line, transform, scatter back.
  parallel_for(0, count * cols_, [&](std::size_t i) {
    thread_local std::vector<std::complex<T>> line;
    line.resize(rows_);
    const std::size_t p = i / cols_;
    const std::size_t c = i % cols_;
    std::complex<T>* panel = base + p * size();
    for (std::size_t r = 0; r < rows_; ++r) line[r] = panel[r * cols_ + c];
    if (fwd) {
      col_plan_.forward(std::span<std::complex<T>>{line});
    } else {
      col_plan_.inverse(std::span<std::complex<T>>{line});  // 1/rows factor
    }
    for (std::size_t r = 0; r < rows_; ++r) panel[r * cols_ + c] = line[r];
  });
}

template <typename T>
void Fft2Plan<T>::forward(std::span<std::complex<T>> panels,
                          std::size_t count) const {
  FFW_CHECK(panels.size() == count * size());
  if (!col_plan_.radix2()) {
    row_pass(panels.data(), count, /*fwd=*/true);
    col_pass(panels.data(), count, /*fwd=*/true);
    return;
  }
  // Finish each panel (rows, then columns) before touching the next: a
  // multi-panel batch otherwise evicts panel 0 from L2 between its row
  // and column passes. The column butterflies run along whole rows:
  // stride-1, and no cache-set aliasing at the power-of-two row pitch.
  parallel_for(0, count, [&](std::size_t p) {
    std::complex<T>* panel = panels.data() + p * size();
    for (std::size_t r = 0; r < rows_; ++r) {
      row_plan_.forward(std::span<std::complex<T>>{panel + r * cols_, cols_});
    }
    col_plan_.transform_lines(panel, cols_, cols_, /*fwd=*/true);
  });
}

template <typename T>
void Fft2Plan<T>::inverse(std::span<std::complex<T>> panels,
                          std::size_t count) const {
  FFW_CHECK(panels.size() == count * size());
  if (!col_plan_.radix2()) {
    col_pass(panels.data(), count, /*fwd=*/false);
    row_pass(panels.data(), count, /*fwd=*/false);
    return;
  }
  parallel_for(0, count, [&](std::size_t p) {
    std::complex<T>* panel = panels.data() + p * size();
    col_plan_.transform_lines(panel, cols_, cols_, /*fwd=*/false);
    for (std::size_t r = 0; r < rows_; ++r) {
      row_plan_.inverse(std::span<std::complex<T>>{panel + r * cols_, cols_});
    }
  });
}

template <typename T>
void Fft2Plan<T>::forward_dif(std::complex<T>* panel, std::size_t nonzero_rows,
                              std::size_t nonzero_cols) const {
  FFW_CHECK_MSG(row_plan_.radix2() && col_plan_.radix2(),
                "transform-order 2-D FFT needs power-of-two sides");
  const std::size_t r = std::min(nonzero_rows, rows_);
  const std::size_t c = std::min(nonzero_cols, cols_);
  const bool prune_rows = rows_ >= 2 && 2 * r <= rows_;
  const bool prune_cols = cols_ >= 2 && 2 * c <= cols_;
  // What the first stages read: rows [0, rows_read), and columns
  // [0, cols_read) of each row. Zero-fill the part beyond the counts.
  const std::size_t rows_read = prune_rows ? rows_ / 2 : rows_;
  const std::size_t cols_read = prune_cols ? cols_ / 2 : cols_;
  for (std::size_t i = 0; i < r; ++i) {
    std::complex<T>* row = panel + i * pitch_;
    std::fill(row + c, row + cols_read, std::complex<T>{});
    row_plan_.dif(row, prune_cols);
  }
  for (std::size_t i = r; i < rows_read; ++i) {
    std::fill_n(panel + i * pitch_, cols_, std::complex<T>{});
  }
  col_plan_.dif_lines(panel, pitch_, cols_, prune_rows);
}

template <typename T>
void Fft2Plan<T>::inverse_dit(std::complex<T>* panel, std::size_t needed_rows,
                              std::size_t needed_cols) const {
  FFW_CHECK_MSG(row_plan_.radix2() && col_plan_.radix2(),
                "transform-order 2-D FFT needs power-of-two sides");
  const std::size_t r = std::min(needed_rows, rows_);
  const std::size_t c = std::min(needed_cols, cols_);
  // Columns first, so that the row transforms can stop at row r.
  col_plan_.dit_lines(panel, pitch_, cols_, rows_ >= 2 && 2 * r <= rows_);
  for (std::size_t i = 0; i < r; ++i) {
    row_plan_.dit(panel + i * pitch_, cols_ >= 2 && 2 * c <= cols_);
  }
}

template class Fft1Plan<double>;
template class Fft1Plan<float>;
template class Fft2Plan<double>;
template class Fft2Plan<float>;

namespace {

/// LRU-bounded per-length plan cache. The shared_ptr hand-out keeps an
/// evicted plan alive until its last in-flight execution finishes.
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  std::shared_ptr<const Fft1Plan<double>> get(std::size_t n) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = index_.find(n);
      if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        obs::add(obs::Counter::kFftPlanHits, 1);
        return it->second->second;
      }
    }
    // Build outside the lock: planning a large Bluestein length must not
    // block concurrent transforms of other lengths.
    auto plan = std::make_shared<const Fft1Plan<double>>(n);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(n);
    if (it != index_.end()) {  // raced with another builder: reuse theirs
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      obs::add(obs::Counter::kFftPlanHits, 1);
      return it->second->second;
    }
    ++misses_;
    obs::add(obs::Counter::kFftPlanMisses, 1);
    lru_.emplace_front(n, std::move(plan));
    index_[n] = lru_.begin();
    shrink_locked();
    return lru_.front().second;
  }

  FftPlanCacheStats stats() {
    std::lock_guard<std::mutex> lk(mu_);
    return {hits_, misses_, lru_.size(), capacity_};
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    lru_.clear();
    index_.clear();
    hits_ = misses_ = 0;
  }

  std::size_t set_capacity(std::size_t entries) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t prev = capacity_;
    capacity_ = std::max<std::size_t>(1, entries);
    shrink_locked();
    return prev;
  }

 private:
  void shrink_locked() {
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  using Entry = std::pair<std::size_t, std::shared_ptr<const Fft1Plan<double>>>;
  std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<std::size_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0, misses_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
};

PlanCache& plan_cache() {
  static PlanCache* cache = new PlanCache;  // leaked: outlives rank threads
  return *cache;
}

}  // namespace

std::shared_ptr<const Fft1Plan<double>> fft_plan(std::size_t n) {
  return plan_cache().get(n);
}

FftPlanCacheStats fft_plan_cache_stats() { return plan_cache().stats(); }

void fft_plan_cache_clear() { plan_cache().clear(); }

std::size_t fft_plan_cache_set_capacity(std::size_t entries) {
  return plan_cache().set_capacity(entries);
}

}  // namespace ffw
