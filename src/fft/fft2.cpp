#include "fft/fft2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <list>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "common/check.hpp"
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

// Hand-vectorized butterflies via GCC/Clang vector extensions. The
// interleaved re/im layout defeats the autovectorizer's cost model (it
// settles for 16-byte vectors plus scalar shuffles); spelling out the
// full-width lanes and the re/im swizzle roughly doubles the butterfly
// throughput. 64-byte lanes on AVX-512 hardware, 32-byte under AVX,
// 16-byte otherwise (wider vectors than the build's registers change the
// ABI of these helpers and are split into pairs). Scalar tails keep
// every width correct; the
// aligned(sizeof(T)) attribute makes each access legal at
// complex-element alignment. The only runtime shuffle is the in-lane
// re/im swap -- twiddles come pre-expanded from the plan tables.
#if defined(__GNUC__) || defined(__clang__)
#define FFW_FFT_SIMD 1
#if defined(__AVX512F__)
#define FFW_FFT_VEC_BYTES 64
#elif defined(__AVX__)
#define FFW_FFT_VEC_BYTES 32
#else
#define FFW_FFT_VEC_BYTES 16
#endif

template <typename T>
struct Simd;

template <>
struct Simd<double> {
  typedef double V __attribute__((vector_size(FFW_FFT_VEC_BYTES), aligned(8)));
  typedef long long M __attribute__((vector_size(FFW_FFT_VEC_BYTES)));
  static constexpr std::size_t kScalars = FFW_FFT_VEC_BYTES / sizeof(double);
  static V load(const double* p) { return *reinterpret_cast<const V*>(p); }
  static void store(double* p, V v) { *reinterpret_cast<V*>(p) = v; }
  // [re0, im0, re1, im1, ...] -> [im0, re0, im1, re1, ...]
  static V swap_pairs(V v) {
#if defined(__clang__) && FFW_FFT_VEC_BYTES == 64
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
#elif defined(__clang__) && FFW_FFT_VEC_BYTES == 32
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
#elif defined(__clang__)
    return __builtin_shufflevector(v, v, 1, 0);
#elif FFW_FFT_VEC_BYTES == 64
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6});
#elif FFW_FFT_VEC_BYTES == 32
    return __builtin_shuffle(v, M{1, 0, 3, 2});
#else
    return __builtin_shuffle(v, M{1, 0});
#endif
  }
  static V broadcast(double a) { return a - V{}; }
  static V alt(double a) {
    V v{};
    for (std::size_t i = 0; i < kScalars; i += 2) {
      v[i] = -a;
      v[i + 1] = a;
    }
    return v;
  }
};

template <>
struct Simd<float> {
  typedef float V __attribute__((vector_size(FFW_FFT_VEC_BYTES), aligned(4)));
  typedef int M __attribute__((vector_size(FFW_FFT_VEC_BYTES)));
  static constexpr std::size_t kScalars = FFW_FFT_VEC_BYTES / sizeof(float);
  static V load(const float* p) { return *reinterpret_cast<const V*>(p); }
  static void store(float* p, V v) { *reinterpret_cast<V*>(p) = v; }
  static V swap_pairs(V v) {
#if defined(__clang__) && FFW_FFT_VEC_BYTES == 64
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10,
                                   13, 12, 15, 14);
#elif defined(__clang__) && FFW_FFT_VEC_BYTES == 32
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
#elif defined(__clang__)
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
#elif FFW_FFT_VEC_BYTES == 64
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12,
                                  15, 14});
#elif FFW_FFT_VEC_BYTES == 32
    return __builtin_shuffle(v, M{1, 0, 3, 2, 5, 4, 7, 6});
#else
    return __builtin_shuffle(v, M{1, 0, 3, 2});
#endif
  }
  static V broadcast(float a) { return a - V{}; }
  static V alt(float a) {
    V v{};
    for (std::size_t i = 0; i < kScalars; i += 2) {
      v[i] = -a;
      v[i + 1] = a;
    }
    return v;
  }
};
#endif  // FFW_FFT_SIMD

/// (a, b) <- (a + w b, a - w b) over len2 interleaved scalars with one
/// constant twiddle w = wr + i wi: the column-pass butterfly, where a
/// and b are contiguous blocks of `width` complex values.
template <typename T>
inline void line_butterfly(T* a, T* b, T wr, T wi, std::size_t len2) {
  std::size_t c = 0;
#if FFW_FFT_SIMD
  using S = Simd<T>;
  const typename S::V vwr = S::broadcast(wr);
  const typename S::V vwi = S::alt(wi);
  for (; c + S::kScalars <= len2; c += S::kScalars) {
    const typename S::V vb = S::load(b + c);
    const typename S::V v = vb * vwr + S::swap_pairs(vb) * vwi;
    const typename S::V vu = S::load(a + c);
    S::store(a + c, vu + v);
    S::store(b + c, vu - v);
  }
#endif
  for (; c < len2; c += 2) {
    const T br = b[c], bi = b[c + 1];
    const T vr = br * wr - bi * wi;
    const T vi = br * wi + bi * wr;
    const T ur = a[c], ui = a[c + 1];
    a[c] = ur + vr;
    a[c + 1] = ui + vi;
    b[c] = ur - vr;
    b[c + 1] = ui - vi;
  }
}

/// Two fused radix-2 stages (one radix-4 step) across four lines of
/// `len2` interleaved scalars: stage 1 pairs (a,b) and (c,d) with the
/// shared twiddle w1, stage 2 pairs the results across (a,c) with w2a
/// and (b,d) with w2b. One sweep over the four lines instead of two —
/// the line traffic, not the arithmetic, bounds the column pass.
template <typename T>
inline void line_butterfly4(T* a, T* b, T* c, T* d, std::complex<T> w1,
                            std::complex<T> w2a, std::complex<T> w2b,
                            std::size_t len2) {
  std::size_t k = 0;
#if FFW_FFT_SIMD
  using S = Simd<T>;
  const typename S::V w1r = S::broadcast(w1.real()), w1i = S::alt(w1.imag());
  const typename S::V w2ar = S::broadcast(w2a.real()),
                      w2ai = S::alt(w2a.imag());
  const typename S::V w2br = S::broadcast(w2b.real()),
                      w2bi = S::alt(w2b.imag());
  for (; k + S::kScalars <= len2; k += S::kScalars) {
    const typename S::V vb = S::load(b + k);
    const typename S::V vd = S::load(d + k);
    const typename S::V tb = vb * w1r + S::swap_pairs(vb) * w1i;
    const typename S::V td = vd * w1r + S::swap_pairs(vd) * w1i;
    const typename S::V va = S::load(a + k);
    const typename S::V vc = S::load(c + k);
    const typename S::V ua = va + tb, ub = va - tb;
    const typename S::V uc = vc + td, ud = vc - td;
    const typename S::V p = uc * w2ar + S::swap_pairs(uc) * w2ai;
    const typename S::V q = ud * w2br + S::swap_pairs(ud) * w2bi;
    S::store(a + k, ua + p);
    S::store(c + k, ua - p);
    S::store(b + k, ub + q);
    S::store(d + k, ub - q);
  }
#endif
  for (; k < len2; k += 2) {
    const T br = b[k], bi = b[k + 1], dr = d[k], di = d[k + 1];
    const T tbr = br * w1.real() - bi * w1.imag();
    const T tbi = br * w1.imag() + bi * w1.real();
    const T tdr = dr * w1.real() - di * w1.imag();
    const T tdi = dr * w1.imag() + di * w1.real();
    const T ar = a[k], ai = a[k + 1], cr = c[k], ci = c[k + 1];
    const T uar = ar + tbr, uai = ai + tbi, ubr = ar - tbr, ubi = ai - tbi;
    const T ucr = cr + tdr, uci = ci + tdi, udr = cr - tdr, udi = ci - tdi;
    const T pr = ucr * w2a.real() - uci * w2a.imag();
    const T pi = ucr * w2a.imag() + uci * w2a.real();
    const T qr = udr * w2b.real() - udi * w2b.imag();
    const T qi = udr * w2b.imag() + udi * w2b.real();
    a[k] = uar + pr;
    a[k + 1] = uai + pi;
    c[k] = uar - pr;
    c[k + 1] = uai - pi;
    b[k] = ubr + qr;
    b[k + 1] = ubi + qi;
    d[k] = ubr - qr;
    d[k + 1] = ubi - qi;
  }
}

/// One radix-2 stage block for the 1-D transform: butterflies across
/// `half` consecutive complex elements with per-element twiddles, fed
/// from the plan's pre-expanded tables (twa[2j] = twa[2j+1] = Re w_j,
/// twb[2j] = -Im w_j, twb[2j+1] = +Im w_j) so the vector body is pure
/// element-wise loads and FMAs plus one in-lane re/im swap.
template <typename T>
inline void radix2_stage(T* lo, T* hi, const T* twa, const T* twb,
                         std::size_t half) {
  std::size_t j = 0;
#if FFW_FFT_SIMD
  using S = Simd<T>;
  constexpr std::size_t kC = S::kScalars / 2;  // complex values per lane
  for (; j + kC <= half; j += kC) {
    const typename S::V wa = S::load(twa + 2 * j);
    const typename S::V wb = S::load(twb + 2 * j);
    const typename S::V vb = S::load(hi + 2 * j);
    const typename S::V v = vb * wa + S::swap_pairs(vb) * wb;
    const typename S::V vu = S::load(lo + 2 * j);
    S::store(lo + 2 * j, vu + v);
    S::store(hi + 2 * j, vu - v);
  }
#endif
  for (; j < half; ++j) {
    const T wr = twa[2 * j], wi = twb[2 * j + 1];
    const T br = hi[2 * j], bi = hi[2 * j + 1];
    const T vr = br * wr - bi * wi;
    const T vi = br * wi + bi * wr;
    const T ur = lo[2 * j], ui = lo[2 * j + 1];
    lo[2 * j] = ur + vr;
    lo[2 * j + 1] = ui + vi;
    hi[2 * j] = ur - vr;
    hi[2 * j + 1] = ui - vi;
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
    // Stage-concatenated twiddles: len = 2, 4, ..., n contributes len/2
    // entries w_j = e^{sign 2 pi i j / len}; n - 1 entries in total.
    tw_fwd_.reserve(n_ - 1);
    tw_inv_.reserve(n_ - 1);
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double ang = 2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(len);
        tw_fwd_.push_back(unit_phase<T>(-ang));
        tw_inv_.push_back(unit_phase<T>(ang));
      }
    }
    // Pre-expanded copies for the vectorized butterfly (see
    // radix2_stage): each complex twiddle becomes a duplicated-real pair
    // and a sign-alternated imaginary pair.
    auto expand = [](const std::vector<std::complex<T>>& tw,
                     std::vector<T>& a, std::vector<T>& b) {
      a.resize(2 * tw.size());
      b.resize(2 * tw.size());
      for (std::size_t j = 0; j < tw.size(); ++j) {
        a[2 * j] = a[2 * j + 1] = tw[j].real();
        b[2 * j] = -tw[j].imag();
        b[2 * j + 1] = tw[j].imag();
      }
    };
    expand(tw_fwd_, twa_fwd_, twb_fwd_);
    expand(tw_inv_, twa_inv_, twb_inv_);
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
void Fft1Plan<T>::pow2_transform(std::span<std::complex<T>> x,
                                 bool fwd) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  // Butterflies in explicit real arithmetic: std::complex operator*
  // otherwise lowers to the __muldc3 runtime call (NaN-recovery
  // semantics) — an order-of-magnitude tax in the innermost loop.
  T* d = reinterpret_cast<T*>(x.data());
  const T* twa = (fwd ? twa_fwd_ : twa_inv_).data();
  const T* twb = (fwd ? twb_fwd_ : twb_inv_).data();
  if (n >= 2) {
    // len == 2 stage: the lone twiddle is +1, pure add/sub.
    for (std::size_t i = 0; i < 2 * n; i += 4) {
      const T ar = d[i], ai = d[i + 1], br = d[i + 2], bi = d[i + 3];
      d[i] = ar + br;
      d[i + 1] = ai + bi;
      d[i + 2] = ar - br;
      d[i + 3] = ai - bi;
    }
    twa += 2;
    twb += 2;
  }
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    for (std::size_t i = 0; i < n; i += len) {
      T* lo = d + 2 * i;
      radix2_stage(lo, lo + 2 * half, twa, twb, half);
    }
    twa += 2 * half;
    twb += 2 * half;
  }
}

template <typename T>
void Fft1Plan<T>::transform_lines(std::complex<T>* data, std::size_t pitch,
                                  std::size_t width, bool fwd) const {
  FFW_DCHECK(pow2_ || n_ <= 1);
  if (n_ > 1) {
    for (std::size_t i = 1; i < n_; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) {
        std::swap_ranges(data + i * pitch, data + i * pitch + width,
                         data + j * pitch);
      }
    }
    // Stage twiddles are concatenated in tw_*: stage `len` starts at
    // offset len/2 - 1.
    const std::complex<T>* twbase = (fwd ? tw_fwd_ : tw_inv_).data();
    std::size_t len = 2;
    // Paired stages: each sweep applies two radix-2 stages (len and
    // 2 len) to four lines at once, halving the pass count over the
    // panel.
    for (; 2 * len <= n_; len <<= 2) {
      const std::size_t h = len >> 1;
      const std::complex<T>* tw1 = twbase + h - 1;
      const std::complex<T>* tw2 = twbase + len - 1;
      for (std::size_t i = 0; i < n_; i += 2 * len) {
        for (std::size_t j = 0; j < h; ++j) {
          T* a = reinterpret_cast<T*>(data + (i + j) * pitch);
          T* b = reinterpret_cast<T*>(data + (i + j + h) * pitch);
          T* c = reinterpret_cast<T*>(data + (i + j + len) * pitch);
          T* d = reinterpret_cast<T*>(data + (i + j + len + h) * pitch);
          line_butterfly4(a, b, c, d, tw1[j], tw2[j], tw2[j + h], 2 * width);
        }
      }
    }
    // Odd log2(n): one unpaired final stage.
    if (len <= n_) {
      const std::size_t half = len >> 1;
      const std::complex<T>* tw = twbase + half - 1;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t j = 0; j < half; ++j) {
          T* a = reinterpret_cast<T*>(data + (i + j) * pitch);
          T* b = reinterpret_cast<T*>(data + (i + j + half) * pitch);
          if (j == 0) {  // identity twiddle
            for (std::size_t c = 0; c < 2 * width; ++c) {
              const T u = a[c], v = b[c];
              a[c] = u + v;
              b[c] = u - v;
            }
          } else {
            line_butterfly(a, b, tw[j].real(), tw[j].imag(), 2 * width);
          }
        }
      }
    }
  }
  if (!fwd) {
    const T inv = static_cast<T>(1.0 / static_cast<double>(n_));
    for (std::size_t r = 0; r < n_; ++r) {
      T* p = reinterpret_cast<T*>(data + r * pitch);
      for (std::size_t c = 0; c < 2 * width; ++c) p[c] *= inv;
    }
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
    pow2_transform(x, /*fwd=*/true);
  } else {
    bluestein_transform(x, /*fwd=*/true);
  }
}

template <typename T>
void Fft1Plan<T>::inverse(std::span<std::complex<T>> x) const {
  FFW_DCHECK(x.size() == n_);
  if (n_ <= 1) return;
  if (pow2_) {
    pow2_transform(x, /*fwd=*/false);
  } else {
    bluestein_transform(x, /*fwd=*/false);
  }
  const T inv = static_cast<T>(1.0 / static_cast<double>(n_));
  for (auto& v : x) v *= inv;
}

template <typename T>
Fft2Plan<T>::Fft2Plan(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_plan_(cols), col_plan_(rows) {
  FFW_CHECK_MSG(rows >= 1 && cols >= 1, "Fft2Plan needs positive extents");
}

template <typename T>
void Fft2Plan<T>::row_pass(std::complex<T>* base, std::size_t count,
                           std::size_t nrows, bool fwd) const {
  // Every (panel, row) line is contiguous.
  parallel_for(0, count * nrows, [&](std::size_t i) {
    const std::size_t p = i / nrows, r = i % nrows;
    std::span<std::complex<T>> row{base + p * size() + r * cols_, cols_};
    if (fwd) {
      row_plan_.forward(row);
    } else {
      row_plan_.inverse(row);  // contributes the 1/cols factor
    }
  });
}

template <typename T>
void Fft2Plan<T>::panel_rows(std::complex<T>* panel, std::size_t nrows,
                             bool fwd) const {
  for (std::size_t r = 0; r < nrows; ++r) {
    std::span<std::complex<T>> row{panel + r * cols_, cols_};
    if (fwd) {
      row_plan_.forward(row);
    } else {
      row_plan_.inverse(row);
    }
  }
}

template <typename T>
void Fft2Plan<T>::col_pass(std::complex<T>* base, std::size_t count,
                           bool fwd) const {
  if (col_plan_.radix2() || rows_ == 1) {
    // Column butterflies run along full contiguous rows: stride-1 inner
    // loops, no gather/scatter, and — critically — no cache-set
    // aliasing. (Narrow column windows at the panels' power-of-two row
    // pitch land every line in the same few L1 sets and thrash; whole
    // rows stream.) Panels parallelise across the batch.
    parallel_for(0, count, [&](std::size_t p) {
      col_plan_.transform_lines(base + p * size(), cols_, cols_, fwd);
    });
    return;
  }
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
void Fft2Plan<T>::forward_top(std::span<std::complex<T>> panels,
                              std::size_t count,
                              std::size_t nonzero_rows) const {
  FFW_CHECK(panels.size() == count * size());
  FFW_CHECK(nonzero_rows <= rows_);
  if (col_plan_.radix2() || rows_ == 1) {
    // Finish each panel (rows, then columns) before touching the next:
    // a multi-panel batch otherwise evicts panel 0 from L2 between its
    // row and column passes and the column pass re-streams from L3.
    parallel_for(0, count, [&](std::size_t p) {
      std::complex<T>* panel = panels.data() + p * size();
      panel_rows(panel, nonzero_rows, /*fwd=*/true);
      col_plan_.transform_lines(panel, cols_, cols_, /*fwd=*/true);
    });
    return;
  }
  row_pass(panels.data(), count, nonzero_rows, /*fwd=*/true);
  col_pass(panels.data(), count, /*fwd=*/true);
}

template <typename T>
void Fft2Plan<T>::inverse_top(std::span<std::complex<T>> panels,
                              std::size_t count,
                              std::size_t needed_rows) const {
  FFW_CHECK(panels.size() == count * size());
  FFW_CHECK(needed_rows <= rows_);
  // Row and column transforms commute; columns first so the row pass
  // can stop at the rows the caller will read.
  if (col_plan_.radix2() || rows_ == 1) {
    parallel_for(0, count, [&](std::size_t p) {
      std::complex<T>* panel = panels.data() + p * size();
      col_plan_.transform_lines(panel, cols_, cols_, /*fwd=*/false);
      panel_rows(panel, needed_rows, /*fwd=*/false);
    });
    return;
  }
  col_pass(panels.data(), count, /*fwd=*/false);
  row_pass(panels.data(), count, needed_rows, /*fwd=*/false);
}

template <typename T>
void Fft2Plan<T>::forward(std::span<std::complex<T>> panels,
                          std::size_t count) const {
  forward_top(panels, count, rows_);
}

template <typename T>
void Fft2Plan<T>::inverse(std::span<std::complex<T>> panels,
                          std::size_t count) const {
  inverse_top(panels, count, rows_);
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
