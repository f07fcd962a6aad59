#include "fft/fft2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "linalg/simd.hpp"

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

/// One radix-4 butterfly (two radix-2 stages) on x[0..3], the values at
/// quarter-block offsets 0, q, 2q, 3q, with w = (w^j, w^2j, w^3j):
/// decimation-in-frequency for Dif, else decimation-in-time with the
/// conjugate twiddles. HalfZero (DIF only): x[2] and x[3] are zero and
/// are not read. Unit: j = 0, so every twiddle is 1 and w is not read.
template <bool Dif, bool HalfZero, bool Unit, typename V>
inline void r4(V* x, const Tw<V>* w) {
  if constexpr (Dif) {
    V t0 = x[0], t1 = x[0], t2 = x[1], t3 = rot<false>(x[1]);
    if constexpr (!HalfZero) {
      t0 = x[0] + x[2];
      t1 = x[0] - x[2];
      t2 = x[1] + x[3];
      t3 = rot<false>(x[1] - x[3]);
    }
    x[0] = t0 + t2;
    x[1] = t0 - t2;
    x[2] = t1 + t3;
    x[3] = t1 - t3;
    if constexpr (!Unit) {
      x[1] = twiddle<false>(x[1], w[1]);
      x[2] = twiddle<false>(x[2], w[0]);
      x[3] = twiddle<false>(x[3], w[2]);
    }
  } else {
    if constexpr (!Unit) {
      x[1] = twiddle<true>(x[1], w[1]);
      x[2] = twiddle<true>(x[2], w[0]);
      x[3] = twiddle<true>(x[3], w[2]);
    }
    const V a0 = x[0] + x[1], a1 = x[0] - x[1];
    const V s = x[2] + x[3], e = rot<true>(x[2] - x[3]);
    x[0] = a0 + s;
    x[1] = a1 + e;
    x[2] = a0 - s;
    x[3] = a1 - e;
  }
}

/// Two radix-4 stages on 16 vectors: x[4 m + k] is quarter k of the
/// long stage's butterfly m (twiddles w[m]) and quarter m of the short
/// stage's butterfly k (twiddles w[4]). DIF runs the long stage first,
/// DIT the short one with the mirrored butterflies. HalfZero: DIF's
/// x[k >= 2] are zero. J0: the twiddle index is 0, so w[0] and w[4]
/// are 1 and not read.
template <bool Dif, bool HalfZero, bool J0, typename V>
inline void r16(V (&x)[16], const Tw<V> (&w)[5][3]) {
  auto long_stage = [&] {
    r4<Dif, HalfZero, J0>(x, w[0]);
#pragma GCC unroll 3
    for (std::size_t m = 1; m < 4; ++m) {
      r4<Dif, HalfZero, false>(x + 4 * m, w[m]);
    }
  };
  auto short_stage = [&] {
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) {
      V y[4] = {x[k], x[4 + k], x[8 + k], x[12 + k]};
      r4<Dif, false, J0>(y, w[4]);
      x[k] = y[0];
      x[4 + k] = y[1];
      x[8 + k] = y[2];
      x[12 + k] = y[3];
    }
  };
  if constexpr (Dif) {
    long_stage();
    short_stage();
  } else {
    short_stage();
    long_stage();
  }
}

/// Loads the R vectors x[4 m + k] (R = 16) or x[k] (R = 4) at p + m * ms
/// + k * kq, skipping k >= 2 when Skip; store() writes them back.
template <std::size_t R, bool Skip, typename V, typename T>
inline void load(V* x, const T* p, std::size_t ms, std::size_t kq) {
#pragma GCC unroll 16
  for (std::size_t i = 0; i < R; ++i) {
    if (!(Skip && i % 4 >= 2)) {
      x[i] = simd::load<V>(p + i / 4 * ms + i % 4 * kq);
    }
  }
}

template <std::size_t R, bool Skip, typename V, typename T>
inline void store(T* p, std::size_t ms, std::size_t kq, const V* x) {
#pragma GCC unroll 16
  for (std::size_t i = 0; i < R; ++i) {
    if (!(Skip && i % 4 >= 2)) simd::store(p + i / 4 * ms + i % 4 * kq, x[i]);
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

/// One pass over a contiguous row of n values: the radix-4 stage len
/// and, when Pair, the stage len/4 after it (in DIF order: the vector
/// x[4 m + k] is at b + j + m len/16 + k len/4), then (Lanes) the
/// in-register stages of each vector, which DIT runs first. The
/// twiddles come per lane from the stage tables t (len) and t4 (len/4);
/// Pruned prunes stage len as for Fft1Plan::dif()/dit().
template <typename V, bool Dif, bool Pruned, bool Pair, bool Lanes, typename T>
void row_pass(T* x, std::size_t n, std::size_t len, const T* t, const T* t4,
              const T* lane_tab) {
  constexpr std::size_t kC = kCplx<V>;
  constexpr std::size_t kR = Pair ? 16 : 4;
  const std::size_t q = len / 4, s = Pair ? q / 4 : 0;
  for (std::size_t b = 0; b < n; b += len) {
    for (std::size_t j = 0; j < (Pair ? s : q); j += kC) {
      Tw<V> w[5][3];
      if constexpr (Pair) {
        for (std::size_t m = 0; m < 4; ++m) {
          r4_twiddles<V, false>(t, q, j + m * s, w[m]);
        }
        r4_twiddles<V, false>(t4, s, j, w[4]);
      } else {
        r4_twiddles<V, false>(t, q, j, w[0]);
      }
      T* p = x + 2 * (b + j);
      V v[kR]{};
      load<kR, Dif && Pruned>(v, p, 2 * s, 2 * q);
      if constexpr (Lanes && !Dif) {
        for (V& y : v) y = lane_stages<kC / 2, true>(y, lane_tab);
      }
      if constexpr (Pair) {
        r16<Dif, Pruned, false>(v, w);
      } else {
        r4<Dif, Pruned, false>(v, w[0]);
      }
      if constexpr (Lanes && Dif) {
        for (V& y : v) y = lane_stages<kC / 2, false>(y, lane_tab);
      }
      store<kR, !Dif && Pruned>(p, 2 * s, 2 * q, v);
    }
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
// The radix-4 stages run two per pass while the shorter one is still a
// vector stage (from the length-n end), and the in-register stages join
// the pass of the shortest radix-4 stage: a row of 256 fp64 values
// takes two passes.
template <typename T>
template <typename V>
void Fft1Plan<T>::row(std::complex<T>* xc, bool dif, bool half) const {
  constexpr std::size_t kC = kCplx<V>;
  T* x = reinterpret_cast<T*>(xc);
  const std::size_t n = n_;
  const bool r2 = std::countr_zero(n / kC) & 1;
  struct Group {
    std::size_t len;
    bool pair;
  };
  Group groups[32];
  std::size_t count = 0;
  for (std::size_t len = r2 ? n / 2 : n; len >= 4 * kC;
       len /= groups[count - 1].pair ? 16 : 4) {
    groups[count++] = {len, len >= 16 * kC};
  }
  const T* lane_tab = tw_.data() + lane_off_;
  auto group = [&](std::size_t g, auto dif_c) {
    const Group& gr = groups[g];
    const T* t = r4_table(gr.len);
    const T* t4 = gr.pair ? r4_table(gr.len / 4) : nullptr;
    with_flag(half && !r2 && g == 0, [&](auto pruned) {
      with_flag(gr.pair, [&](auto pair) {
        with_flag(g + 1 == count, [&](auto lanes) {
          row_pass<V, dif_c(), pruned(), pair(), lanes()>(x, n, gr.len, t, t4,
                                                          lane_tab);
        });
      });
    });
  };
  auto radix2 = [&](auto dif_c) {
    if (!r2) return;
    const std::size_t h = n / 2;
    const T* a = tw_.data() + r2_off_;
    with_flag(half, [&](auto pruned) {
      for (std::size_t j = 0; j < h; j += kC) {
        r2_at<dif_c(), pruned()>(x + 2 * j, x + 2 * (j + h),
                                 tw_load<V>(a, a + n, j));
      }
    });
  };
  // Rows too short for a radix-4 vector stage run the in-register ones
  // in a pass of their own.
  auto lanes = [&](auto dif_c) {
    if constexpr (kC > 1) {
      if (count > 0) return;
      for (std::size_t i = 0; i < 2 * n; i += 2 * kC) {
        simd::store(x + i, lane_stages<kC / 2, !dif_c()>(simd::load<V>(x + i),
                                                          lane_tab));
      }
    }
  };
  if (dif) {
    radix2(std::true_type{});
    for (std::size_t g = 0; g < count; ++g) group(g, std::true_type{});
    lanes(std::true_type{});
  } else {
    lanes(std::false_type{});
    for (std::size_t g = count; g-- > 0;) group(g, std::false_type{});
    radix2(std::false_type{});
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
// order with the mirrored butterflies. A convolution runs the DIF
// sweeps, the DIT ones, and between them, in place of the innermost
// sweep of each, one pass that holds a block of 16 (or 4, or 2) lines
// through the DIF butterflies, the symbol product and the DIT ones.
template <typename T>
template <typename V>
void Fft1Plan<T>::sweeps(T* d, std::size_t pitch, std::size_t c0,
                         std::size_t c1, bool half, const T* symbol,
                         std::size_t spitch, bool conj) const {
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
    if (sw.radix == 2) {
      const std::size_t h = n / 2;
      const T* a = tw_.data() + r2_off_;
      for (std::size_t j = 0; j < h; ++j) {
        const Tw<V> w = tw_splat<V>(a, a + n, j);
        T* l0 = line(j);
        T* l1 = line(j + h);
        for (std::size_t c = c0; c < c1; c += kL) {
          r2_at<kDif, kPruned>(l0 + c, l1 + c, w);
        }
      }
      return;
    }
    // Lines b + j + m s + k q (m, k < 4; radix 4: m = 0).
    const std::size_t q = sw.len / 4;
    const T* t = r4_table(sw.len);
    auto sweep = [&](auto radix_c, std::size_t s, const T* t4) {
      constexpr std::size_t kR = radix_c();
      const std::size_t ms = s * pitch, kq = q * pitch;
      for (std::size_t b = 0; b < n; b += sw.len) {
        for (std::size_t j = 0; j < (kR == 16 ? s : q); ++j) {
          Tw<V> w[5][3];
          if constexpr (kR == 16) {
            for (std::size_t m = 0; m < 4; ++m) {
              r4_twiddles<V, true>(t, q, j + m * s, w[m]);
            }
            r4_twiddles<V, true>(t4, s, j, w[4]);
          } else {
            r4_twiddles<V, true>(t, q, j, w[0]);
          }
          T* l0 = line(b + j);
          for (std::size_t c = c0; c < c1; c += kL) {
            // Fully unrolled, so that x lives in registers.
            V x[kR]{};
            load<kR, kDif && kPruned>(x, l0 + c, ms, kq);
            if constexpr (kR == 16) {
              r16<kDif, kPruned, false>(x, w);
            } else {
              r4<kDif, kPruned, false>(x, w[0]);
            }
            store<kR, !kDif && kPruned>(l0 + c, ms, kq, x);
          }
        }
      }
    };
    if (sw.radix == 4) {
      sweep(std::integral_constant<std::size_t, 4>{}, 0, nullptr);
    } else {
      sweep(std::integral_constant<std::size_t, 16>{}, q / 4, r4_table(q));
    }
  };

  // The innermost sweep of a radix-4 or radix-16 convolution: its length
  // is its radix, so its butterflies have j = 0 and its short stage unit
  // twiddles. x[4 m + k] is line b + m ms + k kq.
  auto fused = [&](auto radix_c, auto conj_c, auto pruned_c) {
    constexpr std::size_t kR = radix_c();
    constexpr bool kPruned = pruned_c();
    const std::size_t ms = kR == 16 ? 1 : 0, kq = kR == 16 ? 4 : 1;
    Tw<V> w[5][3];
    for (std::size_t m = 1; kR == 16 && m < 4; ++m) {
      r4_twiddles<V, true>(r4_table(16), 4, m, w[m]);
    }
    for (std::size_t b = 0; b < n; b += kR) {
      for (std::size_t c = c0; c < c1; c += kL) {
        V x[kR]{};
        load<kR, kPruned>(x, line(b) + c, ms * pitch, kq * pitch);
        if constexpr (kR == 16) {
          r16<true, kPruned, true>(x, w);
        } else {
          r4<true, kPruned, true>(x, w[0]);
        }
#pragma GCC unroll 16
        for (std::size_t i = 0; i < kR; ++i) {
          const T* sym = symbol + (b + i / 4 * ms + i % 4 * kq) * spitch + c;
          x[i] = simd::cmul<conj_c()>(simd::load<V>(sym), x[i]);
        }
        if constexpr (kR == 16) {
          r16<false, false, true>(x, w);
        } else {
          r4<false, false, true>(x, w[0]);
        }
        store<kR, kPruned>(line(b) + c, ms * pitch, kq * pitch, x);
      }
    }
  };

  // Both directions prune sweeps[0]: DIF its input, DIT its output. A
  // side of 1 or 2 (no radix-4 sweep) runs the product on its own.
  const bool fuse = symbol && count > 0 && sweeps[count - 1].radix != 2;
  const std::size_t dif_count = fuse ? count - 1 : count;
  for (std::size_t i = 0; i < dif_count; ++i) {
    with_flag(half && i == 0, [&](auto pruned_c) {
      run(sweeps[i], std::true_type{}, pruned_c);
    });
  }
  if (!symbol) return;
  with_flag(conj, [&](auto conj_c) {
    if (!fuse) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t c = c0; c < c1; c += kL) {
          const V s = simd::load<V>(symbol + k * spitch + c);
          simd::store(line(k) + c,
                      simd::cmul<conj_c()>(s, simd::load<V>(line(k) + c)));
        }
      }
      return;
    }
    with_flag(half && dif_count == 0, [&](auto pruned_c) {
      if (sweeps[dif_count].radix == 4) {
        fused(std::integral_constant<std::size_t, 4>{}, conj_c, pruned_c);
      } else {
        fused(std::integral_constant<std::size_t, 16>{}, conj_c, pruned_c);
      }
    });
  });
  for (std::size_t i = dif_count; i-- > 0;) {
    with_flag(half && i == 0, [&](auto pruned_c) {
      run(sweeps[i], std::false_type{}, pruned_c);
    });
  }
}

template <typename T>
void Fft1Plan<T>::dif(std::complex<T>* x, bool half_zero) const {
  row(x, /*dif=*/true, half_zero);
}

template <typename T>
void Fft1Plan<T>::dit(std::complex<T>* x, bool half_out) const {
  row(x, /*dif=*/false, half_out);
}

template <typename T>
void Fft1Plan<T>::row(std::complex<T>* x, bool dif, bool half) const {
  FFW_DCHECK(pow2_);
  if (n_ <= 1) return;
  using V = simd::Vec<T>;
  if (n_ >= 2 * kCplx<V>) {
    row<V>(x, dif, half);
  } else {
    row<Cx<T>>(x, dif, half);
  }
}

template <typename T>
void Fft1Plan<T>::lines(std::complex<T>* data, std::size_t pitch,
                        std::size_t width, bool half,
                        const std::complex<T>* symbol, bool conj) const {
  FFW_DCHECK(pow2_);
  // Full vectors across the width, then the tail one complex value at a
  // time: each column of the lines is an independent transform.
  constexpr std::size_t kL = simd::kLanes<T>;
  T* d = reinterpret_cast<T*>(data);
  const T* s = reinterpret_cast<const T*>(symbol);
  const std::size_t ws = 2 * width, wv = ws / kL * kL;
  if (wv > 0) sweeps<simd::Vec<T>>(d, 2 * pitch, 0, wv, half, s, ws, conj);
  if (wv < ws) sweeps<Cx<T>>(d, 2 * pitch, wv, ws, half, s, ws, conj);
}

template <typename T>
void Fft1Plan<T>::permute(std::complex<T>* x) const {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
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
    permute(x.data());
  } else {
    bluestein_transform(x, /*fwd=*/true);
  }
}

template <typename T>
void Fft1Plan<T>::inverse(std::span<std::complex<T>> x) const {
  FFW_DCHECK(x.size() == n_);
  if (n_ <= 1) return;
  if (pow2_) {
    permute(x.data());
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
  FFW_CHECK_MSG(is_pow2(rows) && is_pow2(cols),
                "Fft2Plan needs power-of-two sides");
  // Two cache lines of padding per row: lines a power-of-two row count
  // apart then fall in different L1 sets, which lets the column pass
  // hold 16 of them per sweep (Fft1Plan::sweeps).
  if (rows_ >= 16) pitch_ += 128 / sizeof(std::complex<T>);
}

template <typename T>
void Fft2Plan<T>::row_dif(std::complex<T>* row, std::size_t c) const {
  const bool pruned = half(c, cols_);
  std::fill(row + std::min(c, cols_), row + (pruned ? cols_ / 2 : cols_),
            std::complex<T>{});
  row_plan_.dif(row, pruned);
}

template <typename T>
void Fft2Plan<T>::zero_rows(std::complex<T>* panel, std::size_t r) const {
  const std::size_t read = half(r, rows_) ? rows_ / 2 : rows_;
  for (std::size_t i = r; i < read; ++i) {
    std::fill_n(panel + i * pitch_, cols_, std::complex<T>{});
  }
}

template <typename T>
void Fft2Plan<T>::forward_dif(std::complex<T>* panel, std::size_t nonzero_rows,
                              std::size_t nonzero_cols) const {
  const std::size_t r = std::min(nonzero_rows, rows_);
  for (std::size_t i = 0; i < r; ++i) {
    row_dif(panel + i * pitch_, nonzero_cols);
  }
  zero_rows(panel, r);
  col_plan_.lines(panel, pitch_, cols_, half(r, rows_));
}

template class Fft1Plan<double>;
template class Fft1Plan<float>;
template class Fft2Plan<double>;
template class Fft2Plan<float>;

}  // namespace ffw
