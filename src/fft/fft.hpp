// Complex FFT: radix-4 Cooley-Tukey for power-of-two sizes (the planned
// kernels of fft/fft2.hpp plus the bit-reversal permutation) and
// Bluestein's chirp-z algorithm for arbitrary sizes.
//
// The MLFMA field samples live on uniform angular grids whose sizes are
// not powers of two (Q = 2L+2 for truncation L), so the general-size
// transform matters. Used for: spectral verification of the band-limited
// interpolation operators, exact trigonometric resampling references in
// tests, and phantom/image utilities.
//
// These free functions execute through the shared per-length plan cache
// (fft/fft2.hpp): twiddle factors and Bluestein chirp tables are built
// once per length instead of on every call. Planned 1-D/2-D transforms
// for hot paths (the CBS forward backend) live in fft/fft2.hpp.
#pragma once

#include "common/types.hpp"

namespace ffw {

/// In-place forward DFT: X_k = sum_n x_n e^{-2 pi i n k / N}.
void fft(cspan x);

/// In-place inverse DFT (with 1/N normalisation).
void ifft(cspan x);

/// Out-of-place forward DFT of arbitrary length (reference O(N^2) path
/// available via `dft_reference` for testing).
cvec fft_copy(ccspan x);

/// O(N^2) direct DFT used as the oracle in tests.
cvec dft_reference(ccspan x);

/// Exact resampling of a band-limited periodic sequence from `x.size()`
/// to `m` uniform samples via zero-padding in the spectral domain.
/// Requires the signal bandwidth to fit in min(n, m) bins.
cvec spectral_resample(ccspan x, std::size_t m);

}  // namespace ffw
