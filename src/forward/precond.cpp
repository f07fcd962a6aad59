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
  const bool mixed = storage_ == Precision::kMixed;
  if (mixed) {
    inv32_.resize(nblocks_ * nn);
  } else {
    inv64_.resize(nblocks_ * nn);
  }

  // Per-thread scratch: the inversion's pivot rows and pivots, and under
  // kMixed the fp64 leaf the inverse is formed in before it is narrowed.
  ScratchFrame frame;
  const std::size_t slots = static_cast<std::size_t>(num_threads());
  const std::size_t slot = (mixed ? nn : 0) + kInvertBlock * np_;
  const cspan work = frame.vec(slots * slot);
  const std::span<std::size_t> pivots = frame.take<std::size_t>(slots * np_);
  // Leaves are independent: each forms and inverts its own block, so the
  // result does not depend on the thread count.
  parallel_for(0, nblocks_, [&](std::size_t c) {
    const cplx* o = contrast_clu.data() + c * np_;
    // A zero-contrast leaf has M_c = I, whose inverse is I.
    if (std::all_of(o, o + np_, [](cplx v) { return v == cplx{}; })) {
      const auto identity = [&](auto* inv) {
        std::fill_n(inv, nn, std::remove_pointer_t<decltype(inv)>{});
        for (std::size_t i = 0; i < np_; ++i) inv[i * np_ + i] = 1;
      };
      if (mixed) {
        identity(inv32_.data() + c * nn);
      } else {
        identity(inv64_.data() + c * nn);
      }
      return;
    }
    const std::size_t t = static_cast<std::size_t>(thread_rank());
    FFW_DCHECK(t < slots);
    cplx* ws = work.data() + t * slot;
    cplx* m = mixed ? ws : inv64_.data() + c * nn;
    // M_c = I - A_self * diag(O_c): column j is e_j - O_c[j] * A_self[:,j],
    // in real arithmetic.
    for (std::size_t j = 0; j < np_; ++j) {
      const double orr = o[j].real(), oi = o[j].imag();
      const cplx* aj = self_block.data() + j * np_;
      cplx* mj = m + j * np_;
      for (std::size_t i = 0; i < np_; ++i) {
        const double ar = aj[i].real(), ai = aj[i].imag();
        mj[i] = {-(ar * orr - ai * oi), -(ar * oi + ai * orr)};
      }
      mj[j] += 1.0;
    }
    invert_in_place(m, np_, cspan{ws + (mixed ? nn : 0), kInvertBlock * np_},
                    pivots.subspan(t * np_, np_));  // fp64, always
    if (mixed) narrow(ccspan{m, nn}, cspan32{inv32_.data() + c * nn, nn});
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

ccspan NearFieldBlockJacobi::inverse(std::size_t c) const {
  FFW_CHECK(storage_ == Precision::kDouble && c < nblocks_);
  return {inv64_.data() + c * np_ * np_, np_ * np_};
}

std::size_t NearFieldBlockJacobi::bytes() const {
  return inv64_.size() * sizeof(cplx) + inv32_.size() * sizeof(cplx32);
}

}  // namespace ffw
