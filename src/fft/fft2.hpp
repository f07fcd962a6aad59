// Planned FFT execution: per-length 1-D plans (radix-4 twiddle tables
// for powers of two, Bluestein chirp + spectral tables otherwise) and a
// power-of-two 2-D plan for zero-padded convolutions.
//
// The legacy free functions in fft/fft.hpp recomputed twiddle factors
// and the Bluestein chirp on every call; plans hoist that setup so the
// hot paths (the CBS backend's padded Green's-function convolutions,
// the MLFMA spectral verification transforms) run table-driven. Plans
// are immutable after construction and safe to execute from many
// threads concurrently; every entry point runs on the calling thread.
//
// One butterfly family serves every power-of-two transform: a
// decimation-in-frequency forward (natural in, bit-reversed out) and a
// decimation-in-time inverse (bit-reversed in, natural out), radix-4,
// written with the GCC vector types of linalg/simd.hpp so every ISA
// builds it. The 1-D forward()/inverse() add the bit-reversal
// permutation and the 1/N scale. A convolution uses the transform-order
// pair directly and needs neither: it multiplies two bit-reversed
// spectra, folds the 1/N into one of them, and prunes the stages that
// would only read or write its zero padding.
//
// Scalar type T is the real storage type: double for the reference
// pipeline, float for the fp32 spectra of Precision::kMixed backends.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ffw {

template <typename T>
class Fft1Plan {
 public:
  /// Plans an in-place transform of length n >= 1. Powers of two get
  /// per-stage twiddle tables and a bit-reversal index table; other
  /// lengths get Bluestein chirp tables plus the spectra of the
  /// chirp-convolution kernels for both directions, precomputed through
  /// an inner power-of-two plan of length m = bit_ceil(2n - 1).
  explicit Fft1Plan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT X_k = sum_n x_n e^{-2 pi i n k / N} (no
  /// scaling). x.size() must equal size().
  void forward(std::span<std::complex<T>> x) const;

  /// In-place inverse DFT with 1/N normalisation.
  void inverse(std::span<std::complex<T>> x) const;

  // Transform-order kernels (power-of-two lengths only). dif() is the
  // decimation-in-frequency forward DFT: natural order in, bit-reversed
  // order out, no scaling. dit() is the decimation-in-time inverse:
  // bit-reversed in, natural out, no 1/N. So dit(dif(x)) = N x, and a
  // pointwise product of two dif() spectra is a circular convolution
  // without ever forming natural-order spectra. Both run radix-4 stages
  // (one radix-2 stage at the length-N end when log2 N is odd), two per
  // pass over the row where they can, and the stages shorter than a SIMD
  // vector run in-register in the pass of the shortest radix-4 stage.
  //
  // `half_zero`: x[N/2, N) is zero and is never read (the first stage
  // is pruned). `half_out`: only x[0, N/2) of the result is written (the
  // last stage is pruned); the upper half holds stale values.
  void dif(std::complex<T>* x, bool half_zero = false) const;
  void dit(std::complex<T>* x, bool half_out = false) const;

  /// dif() across `size()` strided lines: element k of the transform is
  /// the contiguous block of `width` complex values at data + k * pitch,
  /// and the butterflies run stride-1 across the block (the column pass
  /// of a 2-D plan: no gather/scatter). `half` as dif()'s `half_zero`,
  /// by line.
  ///
  /// Given a `symbol` (a dense size() x width array in dif()'s output
  /// order, conjugated when `conj`), the lines are convolved instead:
  /// dif(), line k times symbol row k, then dit(), without the 1/N and
  /// with `half` also pruning the output to lines [0, N/2). The innermost
  /// dif() sweep, the product and the innermost dit() sweep run as one
  /// pass over each block of lines.
  void lines(std::complex<T>* data, std::size_t pitch, std::size_t width,
             bool half, const std::complex<T>* symbol = nullptr,
             bool conj = false) const;

 private:
  /// dif() (or dit()) of one contiguous row, in vectors V; `half` is
  /// their pruning flag.
  void row(std::complex<T>* x, bool dif, bool half) const;
  template <typename V>
  void row(std::complex<T>* x, bool dif, bool half) const;
  /// lines() over scalars [c0, c1) of every line (pitch and the
  /// symbol's row pitch spitch in scalars).
  template <typename V>
  void sweeps(T* data, std::size_t pitch, std::size_t c0, std::size_t c1,
              bool half, const T* symbol, std::size_t spitch, bool conj) const;
  void permute(std::complex<T>* x) const;
  void bluestein_transform(std::span<std::complex<T>> x, bool fwd) const;
  /// Radix-4 stage table of length L (a power of two, 4 <= L <= n): six
  /// arrays of 2 * L/4 scalars, w^j, w^2j and w^3j (j < L/4, w =
  /// e^{-2 pi i / L}), each as a (Re, Re) array then a (-Im, Im) array.
  const T* r4_table(std::size_t len) const;

  std::size_t n_ = 0;
  bool pow2_ = false;
  // Power-of-two tables. All twiddles are stored once, for the forward
  // sign; the inverse multiplies by their conjugates.
  std::vector<std::uint32_t> bitrev_;
  std::vector<T> tw_;
  std::vector<std::size_t> r4_off_;  // by log2 L
  std::size_t r2_off_ = 0;     // radix-2 stage of length n: w^j, j < n/2
  std::size_t lane_off_ = 0;   // in-register stages: per-lane twiddles
  // Bluestein tables (empty for power-of-two lengths).
  std::unique_ptr<Fft1Plan<T>> inner_;            // pow2 plan, length m
  std::vector<std::complex<T>> chirp_fwd_, chirp_inv_;  // e^{∓ i pi k^2 / n}
  std::vector<std::complex<T>> bhat_fwd_, bhat_inv_;    // FFT_m of b = conj(chirp)
};

/// Transform-order 2-D transforms of one rows() x pitch() panel with
/// power-of-two sides, on the calling thread: the padded-convolution
/// backend runs one column per thread through convolve().
template <typename T>
class Fft2Plan {
 public:
  /// rows and cols must be powers of two.
  Fft2Plan(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Row pitch (elements) of the panels: cols() plus a two-cache-line
  /// pad for sides of 16 rows or more, so that the column pass can sweep
  /// 16 lines at once without L1 set conflicts; cols() otherwise.
  /// Element (i, j) of a panel is at i * pitch() + j; the pad columns
  /// are never read or written.
  std::size_t pitch() const { return pitch_; }

  /// Transform-order forward: natural order in, bit-reversed order out
  /// on both axes, no scaling. The input is taken as zero at rows >=
  /// nonzero_rows and columns >= nonzero_cols, and nothing there is
  /// read. When a count is at most half its side, that axis's first
  /// stage is pruned.
  void forward_dif(std::complex<T>* panel, std::size_t nonzero_rows,
                   std::size_t nonzero_cols) const;

  /// Circular convolution of an r x c block with a kernel given by its
  /// spectrum: rows() * cols() IDFT(symbol .* DFT(x)) on the r x c block
  /// (a symbol scaled by 1/(rows() cols()) gives the plain convolution).
  /// `symbol` is dense rows() x cols() in forward_dif()'s output order,
  /// conjugated when `conj`. Five passes over the panel: pack(i, row)
  /// writes the c values of row i < r, which runs its row forward while
  /// in L1 (the rest of the panel is taken as zero); the column pass
  /// (Fft1Plan::lines) holds the symbol product in its innermost sweep;
  /// each row i < r runs its row inverse and hands its first c values
  /// to crop(i, row). forward_dif()'s pruning holds on both axes and in
  /// both directions.
  template <typename Pack, typename Crop>
  void convolve(std::complex<T>* panel, std::size_t r, std::size_t c,
                const std::complex<T>* symbol, bool conj, Pack&& pack,
                Crop&& crop) const {
    r = std::min(r, rows_);
    for (std::size_t i = 0; i < r; ++i) {
      std::complex<T>* row = panel + i * pitch_;
      pack(i, row);
      row_dif(row, c);
    }
    zero_rows(panel, r);
    col_plan_.lines(panel, pitch_, cols_, half(r, rows_), symbol, conj);
    for (std::size_t i = 0; i < r; ++i) {
      std::complex<T>* row = panel + i * pitch_;
      row_plan_.dit(row, half(c, cols_));
      crop(i, static_cast<const std::complex<T>*>(row));
    }
  }

 private:
  /// Can a count's axis prune its outer stage?
  static bool half(std::size_t count, std::size_t side) {
    return side >= 2 && 2 * count <= side;
  }
  /// Zero-fills row columns [c, what the row forward reads) and runs it.
  void row_dif(std::complex<T>* row, std::size_t c) const;
  /// Zero-fills rows [r, what the column forward reads).
  void zero_rows(std::complex<T>* panel, std::size_t r) const;

  std::size_t rows_, cols_, pitch_;
  Fft1Plan<T> row_plan_;  // length cols: applied to each row
  Fft1Plan<T> col_plan_;  // length rows: applied to each column
};

/// Shared per-length fp64 1-D plan cache behind fft()/ifft()/fft_copy():
/// thread-safe, LRU-bounded. Hits return a shared_ptr so an eviction
/// never invalidates a plan another thread is still executing.
std::shared_ptr<const Fft1Plan<double>> fft_plan(std::size_t n);

struct FftPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};
FftPlanCacheStats fft_plan_cache_stats();
void fft_plan_cache_clear();

/// Reconfigures the plan cache's LRU capacity (entries; clamped to >= 1)
/// and returns the previous capacity. Shrinking evicts least-recently
/// used plans immediately — in-flight executions keep their shared_ptr.
/// Hits and misses are also exported as the obs counters
/// `fft_plan_hits` / `fft_plan_misses`.
std::size_t fft_plan_cache_set_capacity(std::size_t entries);

}  // namespace ffw
