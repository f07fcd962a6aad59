#include "mlfma/farfield.hpp"

#include "linalg/gemm.hpp"

namespace ffw {

template <typename T>
void leaf_expand(const MlfmaOperators& ops, std::size_t np, std::size_t q0,
                 std::size_t cols, const std::complex<T>* x,
                 std::complex<T>* s0) {
  if constexpr (std::is_same_v<T, float>) {
    gemm_expand_mixed(q0, cols, np, ops.expansion_data<float>(), q0, x, np,
                      s0, q0);
  } else {
    const GemmTerm<double> term{ops.expansion_data<double>(), x};
    gemm_sum_t<double>(q0, cols, np, &term, 1, q0, np, s0, q0,
                       /*accumulate=*/false);
  }
}

template <typename T>
void leaf_local_expand(const MlfmaOperators& ops, std::size_t np,
                       std::size_t q0, std::size_t cols,
                       const std::complex<T>* g0, cplx* y) {
  const GemmTerm<T> term{ops.local_expansion_data<T>(), g0};
  gemm_sum_t<T>(np, cols, q0, &term, 1, np, q0, y, np);
}

template <typename T>
void aggregate_parent(const LevelOperators& level, std::size_t nrhs,
                      const std::complex<T>* children,
                      std::complex<T>* parent) {
  const BandTiles<T>& band = level.interp_band<T>();
  const std::size_t qc = band.cols(), qp = band.rows();
  // Child Morton index 4p + j; bit0/bit1 of j give the child's +-x/+-y
  // position, matching the shift-table construction.
  for (std::size_t j = 0; j < 4; ++j)
    band.apply(children + j * qc * nrhs, qc, level.up<T>()[j].data(), parent,
               qp, nrhs, /*accumulate=*/j > 0);
}

template <typename T>
void disaggregate_parent(const LevelOperators& level, std::size_t nrhs,
                         const std::complex<T>* parent,
                         std::complex<T>* children, std::complex<T>* shifted) {
  const BandTiles<T>& band = level.anterp_band<T>();
  const std::size_t qc = band.rows(), qp = band.cols();
  for (std::size_t j = 0; j < 4; ++j) {
    // Explicit real arithmetic: identical to the complex multiply on
    // finite values but free of its NaN-recovery branch, so it
    // vectorizes.
    const T* sh = reinterpret_cast<const T*>(level.down<T>()[j].data());
    for (std::size_t r = 0; r < nrhs; ++r) {
      T* out = reinterpret_cast<T*>(shifted + r * qp);
      const T* in = reinterpret_cast<const T*>(parent + r * qp);
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t q = 0; q < qp; ++q) {
        const T ar = sh[2 * q], ai = sh[2 * q + 1];
        const T br = in[2 * q], bi = in[2 * q + 1];
        out[2 * q] = ar * br - ai * bi;
        out[2 * q + 1] = ar * bi + ai * br;
      }
    }
    band.apply(shifted, qp, nullptr, children + j * qc * nrhs, qc, nrhs,
               /*accumulate=*/true);
  }
}

#define FFW_FARFIELD_INSTANTIATE(T)                                          \
  template void leaf_expand<T>(const MlfmaOperators&, std::size_t,          \
                               std::size_t, std::size_t,                    \
                               const std::complex<T>*, std::complex<T>*);   \
  template void leaf_local_expand<T>(const MlfmaOperators&, std::size_t,    \
                                     std::size_t, std::size_t,              \
                                     const std::complex<T>*, cplx*);        \
  template void aggregate_parent<T>(const LevelOperators&, std::size_t,     \
                                    const std::complex<T>*,                 \
                                    std::complex<T>*);                      \
  template void disaggregate_parent<T>(const LevelOperators&, std::size_t,  \
                                       const std::complex<T>*,              \
                                       std::complex<T>*, std::complex<T>*);
FFW_FARFIELD_INSTANTIATE(double)
FFW_FARFIELD_INSTANTIATE(float)
#undef FFW_FARFIELD_INSTANTIATE

}  // namespace ffw
