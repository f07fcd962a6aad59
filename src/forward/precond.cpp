#include "forward/precond.hpp"

#include <algorithm>
#include <type_traits>

#include "common/check.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

NearFieldBlockJacobi::NearFieldBlockJacobi(const CMatrix& self_block,
                                           ccspan contrast_clu,
                                           Precision storage)
    : storage_(storage) {
  rebuild(self_block, contrast_clu);
}

void NearFieldBlockJacobi::rebuild(const CMatrix& self_block,
                                   ccspan contrast_clu) {
  FFW_TRACE_SPAN("precond.setup", obs::kNoArg, obs::Counter::kPrecondSetupNs);
  np_ = self_block.rows();
  FFW_CHECK_MSG(np_ > 0 && self_block.cols() == np_,
                "near-field self block must be square");
  FFW_CHECK_MSG(contrast_clu.size() % np_ == 0,
                "contrast slice must cover whole leaf panels");
  nblocks_ = contrast_clu.size() / np_;
  const std::size_t nn = np_ * np_;
  if (storage_ == Precision::kMixed) {
    inv32_.resize(nblocks_ * nn);
  } else {
    inv64_.resize(nblocks_ * nn);
  }

  // Leaves are independent: each builds, factors and inverts its own
  // block, so the result does not depend on the thread count.
  parallel_for(0, nblocks_, [&](std::size_t c) {
    // M_c = I - A_self * diag(O_c): column j is e_j - O_c[j] * A_self[:,j].
    const cplx* o = contrast_clu.data() + c * np_;
    CMatrix m(np_, np_);
    for (std::size_t j = 0; j < np_; ++j) {
      const cplx oj = o[j];
      for (std::size_t i = 0; i < np_; ++i)
        m(i, j) = (i == j ? cplx{1.0} : cplx{}) - self_block(i, j) * oj;
    }
    const CMatrix inv = LuFactors(std::move(m)).inverse();  // fp64, always
    if (storage_ == Precision::kMixed) {
      std::transform(inv.data(), inv.data() + nn, inv32_.data() + c * nn,
                     [](cplx v) { return narrow(v); });
    } else {
      std::copy(inv.data(), inv.data() + nn, inv64_.data() + c * nn);
    }
  });
}

template <typename T>
void NearFieldBlockJacobi::apply_leaves(const std::complex<T>* inv, ccspan x,
                                        cspan z, const BlockLayout& lo,
                                        bool herm) const {
  FFW_CHECK(lo.panel == np_ && lo.npanels == nblocks_);
  FFW_CHECK(x.size() == lo.size() && z.size() == lo.size());
  const std::size_t nrhs = lo.nrhs;
  // The mixed path narrows each leaf's panel into a per-thread slice.
  ScratchFrame frame;
  const std::size_t slots = static_cast<std::size_t>(num_threads());
  const cspan32 narrowed = std::is_same_v<T, float>
                               ? frame.take<cplx32>(slots * np_ * nrhs)
                               : cspan32{};
  parallel_for(0, nblocks_, [&](std::size_t c) {
    // Leaf c's columns are one contiguous np x nrhs panel (ld = np).
    const cplx* xs = x.data() + lo.at(c, 0);
    const std::complex<T>* xb;
    if constexpr (std::is_same_v<T, float>) {
      FFW_DCHECK(static_cast<std::size_t>(thread_rank()) < slots);
      const cspan32 xn = narrowed.subspan(
          static_cast<std::size_t>(thread_rank()) * np_ * nrhs, np_ * nrhs);
      narrow(ccspan{xs, np_ * nrhs}, xn);
      xb = xn.data();
    } else {
      xb = xs;
    }
    const std::complex<T>* a = inv + c * np_ * np_;
    cplx* zs = z.data() + lo.at(c, 0);
    if (herm) {
      gemm_herm_raw_t<T, double>(np_, nrhs, np_, cplx{1.0}, a, np_, xb, np_,
                                 cplx{}, zs, np_);
    } else {
      const GemmTerm<T> term{a, xb};
      gemm_sum_t<T>(np_, nrhs, np_, &term, 1, np_, np_, zs, np_,
                    /*accumulate=*/false);
    }
  });
}

void NearFieldBlockJacobi::apply(ccspan x, cspan z,
                                 const BlockLayout& lo) const {
  FFW_TRACE_SPAN("precond.apply", obs::kNoArg, obs::Counter::kPrecondApplyNs);
  if (storage_ == Precision::kMixed) {
    apply_leaves(inv32_.data(), x, z, lo, /*herm=*/false);
  } else {
    apply_leaves(inv64_.data(), x, z, lo, /*herm=*/false);
  }
}

void NearFieldBlockJacobi::apply_herm(ccspan x, cspan z,
                                      const BlockLayout& lo) const {
  FFW_TRACE_SPAN("precond.apply", obs::kNoArg, obs::Counter::kPrecondApplyNs);
  if (storage_ == Precision::kMixed) {
    apply_leaves(inv32_.data(), x, z, lo, /*herm=*/true);
  } else {
    apply_leaves(inv64_.data(), x, z, lo, /*herm=*/true);
  }
}

std::size_t NearFieldBlockJacobi::bytes() const {
  return inv64_.size() * sizeof(cplx) + inv32_.size() * sizeof(cplx32);
}

}  // namespace ffw
