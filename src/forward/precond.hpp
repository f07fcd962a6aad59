// Preconditioning of the forward volume-integral system (DESIGN.md
// Sec. 13).
//
// The per-iteration cost of DBIM is Krylov iterations x MLFMA applies,
// and the near-field pass dominates each apply. bench_ablation_precond
// showed (honestly) that *diagonal* scaling is useless here — the system
// diagonal 1 - G0_nn O_n is nearly constant over the object — so the
// cheapest preconditioner that actually moves the spectrum is the next
// structure up: the per-leaf *self block* I - G0_self diag(O_c), i.e.
// the intra-leaf multiple scattering that the near-field tables already
// encode. Inverting it exactly removes the strongest off-identity
// coupling from the preconditioned operator. Each leaf's explicit
// inverse is built once per contrast update (leaves in parallel), and
// an application is one np x np by np x nrhs GEMM per leaf over the
// leaf's contiguous panel — the dense per-leaf product that Table III
// argues runs at GEMM throughput.
//
// `Preconditioner` is the right-preconditioning interface used by
// bicgstab/block_bicgstab: the solvers keep *true* residuals and apply
// M^{-1} only to search directions (flexible right preconditioning), so
// an identity / absent preconditioner leaves every existing call site
// bit-identical, and an fp32-stored M (Precision::kMixed) costs no final
// accuracy — it only steers the Krylov space.
#pragma once

#include "common/types.hpp"
#include "linalg/block.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M^{-1} x over a block vector in layout `lo`; z is fully
  /// overwritten (x and z may not alias).
  virtual void apply(ccspan x, cspan z, const BlockLayout& lo) const = 0;

  /// z = M^{-H} x — the right preconditioner of the Hermitian-transposed
  /// system (the DBIM step-length solves).
  virtual void apply_herm(ccspan x, cspan z, const BlockLayout& lo) const = 0;

  /// Factor storage (memory census).
  virtual std::size_t bytes() const = 0;
};

/// Preconditioner handle the Krylov solvers accept: which M (nullptr =
/// identity — the default leaves every existing call site bit-identical,
/// no extra buffers or applies), the block layout of the solver's
/// vectors, and whether the solve targets the Hermitian-transposed
/// system (selects apply_herm, i.e. M^{-H}).
struct PrecondContext {
  const Preconditioner* m = nullptr;
  BlockLayout lo{};
  bool herm = false;

  explicit operator bool() const { return m != nullptr; }
  void operator()(ccspan x, cspan z) const {
    if (herm) {
      m->apply_herm(x, z, lo);
    } else {
      m->apply(x, z, lo);
    }
  }
};

/// Block-Jacobi over the leaf self blocks: M = diag_c(I - A_self O_c)
/// with A_self the shared np x np near-field self matrix
/// (NearFieldOperators::type(4)) and O_c the contrast diagonal of leaf
/// panel c. M_c^{-1} is formed explicitly in fp64, in place in the
/// preconditioner's storage, by invert_in_place (linalg/lu: blocked
/// Gauss-Jordan on the GEMM register tile); a leaf whose contrast is
/// exactly zero gets I without a factorisation. It is applied as a GEMM
/// (M^{-H} as an A^H B product). Under Precision::kMixed each inverse is
/// formed in a per-thread fp64 scratch slot and rounded once to fp32 —
/// half the streamed bytes — and the products accumulate in fp64. A
/// rebuild allocates nothing once its scratch has been sized.
class NearFieldBlockJacobi final : public Preconditioner {
 public:
  /// `contrast_clu` is the cluster-ordered contrast covering the leaves
  /// to precondition (length = npanels * np, a rank-local slice in the
  /// partitioned drivers); one inverse is built per np-sized panel.
  NearFieldBlockJacobi(const CMatrix& self_block, ccspan contrast_clu,
                       Precision storage = Precision::kDouble);

  /// Re-forms every inverse for a new contrast, in place: the storage of
  /// the previous inverses is overwritten, so a contrast update never
  /// holds two sets. Bit-identical to a fresh construction.
  void rebuild(const CMatrix& self_block, ccspan contrast_clu);

  void apply(ccspan x, cspan z, const BlockLayout& lo) const override;
  void apply_herm(ccspan x, cspan z, const BlockLayout& lo) const override;
  std::size_t bytes() const override;

  /// M_c^{-1} of leaf c, np x np column-major (fp64 storage only).
  ccspan inverse(std::size_t c) const;

  Precision storage() const { return storage_; }
  std::size_t num_blocks() const { return nblocks_; }
  std::size_t block_dim() const { return np_; }

 private:
  template <typename T>
  void apply_leaves(const std::complex<T>* inv, ccspan x, cspan z,
                    const BlockLayout& lo, bool herm) const;

  std::size_t np_ = 0;       // block dimension (pixels per leaf)
  std::size_t nblocks_ = 0;  // leaf panels covered
  Precision storage_ = Precision::kDouble;
  // M_c^{-1}, np x np column-major per block. Only the vector matching
  // `storage_` is populated.
  cvec inv64_;
  cvec32 inv32_;
};

}  // namespace ffw
