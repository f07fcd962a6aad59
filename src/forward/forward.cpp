#include "forward/forward.hpp"

#include "common/timer.hpp"
#include "greens/greens.hpp"
#include "linalg/kernels.hpp"

namespace ffw {

ForwardSolver::ForwardSolver(MlfmaEngine& engine, const BicgstabOptions& opts)
    : engine_(&engine), opts_(opts) {
  const std::size_t n = engine.tree().grid().num_pixels();
  contrast_nat_.assign(n, cplx{});
  contrast_clu_.assign(n, cplx{});
  work_.assign(n, cplx{});
}

void ForwardSolver::set_contrast(ccspan contrast) {
  FFW_CHECK(contrast.size() == contrast_nat_.size());
  copy(contrast, contrast_nat_);
  engine_->tree().to_cluster_order(contrast, contrast_clu_);
  refresh_preconditioner();
}

void ForwardSolver::set_jacobi_preconditioner(bool enable) {
  FFW_CHECK_MSG(!(enable && use_near_),
                "diagonal Jacobi and near-field block preconditioners are "
                "mutually exclusive");
  use_jacobi_ = enable;
  refresh_preconditioner();
}

void ForwardSolver::set_near_preconditioner(bool enable, Precision storage) {
  FFW_CHECK_MSG(!(enable && use_jacobi_),
                "diagonal Jacobi and near-field block preconditioners are "
                "mutually exclusive");
  use_near_ = enable;
  near_storage_ = storage;
  refresh_preconditioner();
}

void ForwardSolver::refresh_preconditioner() {
  if (use_near_) {
    FFW_CHECK_MSG(engine_->nearfield().precision() == Precision::kDouble,
                  "near-field block preconditioner needs the fp64 reference "
                  "engine's near-field tables");
    Timer t;
    near_precond_ = std::make_unique<NearFieldBlockJacobi>(
        engine_->nearfield().type(4), ccspan{contrast_clu_}, near_storage_);
    stats_.precond_setup_seconds += t.seconds();
  } else {
    near_precond_.reset();
  }
  if (!use_jacobi_) {
    minv_clu_.clear();
    return;
  }
  const cplx g_self = self_term(engine_->tree().grid());
  minv_clu_.resize(contrast_clu_.size());
  for (std::size_t i = 0; i < contrast_clu_.size(); ++i) {
    const cplx d = 1.0 - g_self * contrast_clu_[i];
    FFW_CHECK_MSG(std::abs(d) > 1e-12, "singular Jacobi diagonal");
    minv_clu_[i] = 1.0 / d;
  }
}

PrecondContext ForwardSolver::precond_ctx(std::size_t nrhs, bool herm) const {
  if (near_precond_ == nullptr) return {};
  return PrecondContext{near_precond_.get(), block_layout(nrhs), herm};
}

void ForwardSolver::op_forward(ccspan x, cspan y) {
  // y = x - G0 (O .* x), cluster order. With Jacobi preconditioning the
  // operand is M^{-1} x (right preconditioning).
  if (use_jacobi_) {
    cvec xm(x.size());
    diag_mul(minv_clu_, x, xm);
    diag_mul(contrast_clu_, ccspan{xm}, work_);
    engine_->apply(work_, y);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = xm[i] - y[i];
    return;
  }
  diag_mul(contrast_clu_, x, work_);
  engine_->apply(work_, y);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x[i] - y[i];
}

void ForwardSolver::op_adjoint(ccspan x, cspan y) {
  // y = x - conj(O) .* (G0^H x), cluster order.
  engine_->apply_herm(x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = x[i] - std::conj(contrast_clu_[i]) * y[i];
}

BlockLayout ForwardSolver::block_layout(std::size_t nrhs) const {
  const QuadTree& tree = engine_->tree();
  return BlockLayout{static_cast<std::size_t>(tree.pixels_per_leaf()), nrhs,
                     tree.num_leaves()};
}

void ForwardSolver::op_forward_block(ccspan x, cspan y,
                                     const BlockLayout& lo) {
  // Blocked y = x - G0 (O .* x): the diagonal contrast is indexed per
  // cluster pixel and reused across all columns of a panel.
  if (use_jacobi_) {
    if (block_work_.size() < lo.size()) block_work_.resize(lo.size());
    cspan work{block_work_.data(), lo.size()};
    cvec xm(lo.size());
    block_diag_mul(lo, minv_clu_, x, xm);
    block_diag_mul(lo, contrast_clu_, ccspan{xm}, work);
    engine_->apply_block(work, y, lo.nrhs);
    block_identity_minus(lo, xm, y);
    return;
  }
  op_forward_block_on(*engine_, x, y, lo);
}

void ForwardSolver::op_forward_block_on(MlfmaEngine& eng, ccspan x, cspan y,
                                        const BlockLayout& lo) {
  if (block_work_.size() < lo.size()) block_work_.resize(lo.size());
  cspan work{block_work_.data(), lo.size()};
  block_diag_mul(lo, contrast_clu_, x, work);
  eng.apply_block(work, y, lo.nrhs);
  block_identity_minus(lo, x, y);
}

void ForwardSolver::set_mixed_engine(MlfmaEngine* mixed) {
  if (mixed != nullptr) {
    FFW_CHECK_MSG(mixed->tree().grid().num_pixels() ==
                      engine_->tree().grid().num_pixels(),
                  "mixed engine must cover the same grid");
  }
  mixed_ = mixed;
}

RefinedResult ForwardSolver::solve_block_refined(ccspan rhs, cspan phi,
                                                 std::size_t nrhs,
                                                 const RefinedOptions& opts) {
  FFW_CHECK_MSG(mixed_ != nullptr,
                "solve_block_refined needs set_mixed_engine first");
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && phi.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec b(lo.size()), x(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{phi.data(), phi.size()}, x);
  const std::uint64_t before = engine_->phase_times().applications +
                               mixed_->phase_times().applications;
  const RefinedResult res = refined_block_bicgstab(
      [this, &lo](ccspan in, cspan out) {
        op_forward_block_on(*engine_, in, out, lo);
      },
      [this, &lo](ccspan in, cspan out) {
        op_forward_block_on(*mixed_, in, out, lo);
      },
      b, x, lo, opts, {}, precond_ctx(nrhs, /*herm=*/false));
  stats_.solves += nrhs;
  stats_.bicgs_iterations += res.inner_iterations + res.fallback_iterations;
  stats_.operator_applications += engine_->phase_times().applications +
                               mixed_->phase_times().applications - before;
  block_unpack_natural(lo, tree.perm(), x, phi);
  return res;
}

RefinedResult ForwardSolver::solve_adjoint_block_refined(
    ccspan rhs, cspan psi, std::size_t nrhs, const RefinedOptions& opts) {
  FFW_CHECK_MSG(mixed_ != nullptr,
                "solve_adjoint_block_refined needs set_mixed_engine first");
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && psi.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec b(lo.size()), x(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{psi.data(), psi.size()}, x);
  const std::uint64_t before = engine_->phase_times().applications +
                               mixed_->phase_times().applications;
  const RefinedResult res = refined_block_bicgstab(
      [this, &lo](ccspan in, cspan out) {
        op_adjoint_block_on(*engine_, in, out, lo);
      },
      [this, &lo](ccspan in, cspan out) {
        op_adjoint_block_on(*mixed_, in, out, lo);
      },
      b, x, lo, opts, {}, precond_ctx(nrhs, /*herm=*/true));
  stats_.solves += nrhs;
  stats_.bicgs_iterations += res.inner_iterations + res.fallback_iterations;
  stats_.operator_applications += engine_->phase_times().applications +
                               mixed_->phase_times().applications - before;
  block_unpack_natural(lo, tree.perm(), x, psi);
  return res;
}

void ForwardSolver::op_adjoint_block(ccspan x, cspan y,
                                     const BlockLayout& lo) {
  op_adjoint_block_on(*engine_, x, y, lo);
}

void ForwardSolver::op_adjoint_block_on(MlfmaEngine& eng, ccspan x, cspan y,
                                        const BlockLayout& lo) {
  eng.apply_herm_block(x, y, lo.nrhs);
  block_identity_minus_conj_diag(lo, contrast_clu_, x, y);
}

void ForwardSolver::record_block_stats(const BlockBicgstabResult& res,
                                       std::uint64_t applications_before) {
  stats_.solves += res.rhs.size();
  stats_.bicgs_iterations += res.total_iterations();
  stats_.operator_applications +=
      engine_->phase_times().applications - applications_before;
  for (const auto& r : res.rhs) {
    stats_.per_solve_iterations.push_back(
        static_cast<std::uint16_t>(r.iterations));
  }
}

BlockBicgstabResult ForwardSolver::solve_block(ccspan rhs, cspan phi,
                                               std::size_t nrhs) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && phi.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec b(lo.size()), x(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{phi.data(), phi.size()}, x);
  const std::uint64_t before = engine_->phase_times().applications;
  if (use_jacobi_) {
    // The Krylov unknown is y = M x per column; convert the initial
    // guess in and the solution out.
    for (std::size_t c = 0; c < lo.npanels; ++c) {
      const cplx* mp = minv_clu_.data() + c * lo.panel;
      for (std::size_t r = 0; r < nrhs; ++r) {
        cplx* xp = x.data() + lo.at(c, r);
        for (std::size_t i = 0; i < lo.panel; ++i) xp[i] /= mp[i];
      }
    }
  }
  const BlockBicgstabResult res = block_bicgstab(
      [this, &lo](ccspan in, cspan out) { op_forward_block(in, out, lo); },
      b, x, lo, opts_, {}, precond_ctx(nrhs, /*herm=*/false));
  if (use_jacobi_) block_diag_mul(lo, minv_clu_, cvec(x.begin(), x.end()), x);
  record_block_stats(res, before);
  block_unpack_natural(lo, tree.perm(), x, phi);
  return res;
}

BlockBicgstabResult ForwardSolver::solve_adjoint_block(ccspan rhs, cspan psi,
                                                       std::size_t nrhs) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n * nrhs && psi.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec b(lo.size()), x(lo.size());
  block_pack_natural(lo, tree.perm(), rhs, b);
  block_pack_natural(lo, tree.perm(), ccspan{psi.data(), psi.size()}, x);
  const std::uint64_t before = engine_->phase_times().applications;
  const BlockBicgstabResult res = block_bicgstab(
      [this, &lo](ccspan in, cspan out) { op_adjoint_block(in, out, lo); },
      b, x, lo, opts_, {}, precond_ctx(nrhs, /*herm=*/true));
  record_block_stats(res, before);
  block_unpack_natural(lo, tree.perm(), x, psi);
  return res;
}

BicgstabResult ForwardSolver::solve(ccspan rhs, cspan phi) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n && phi.size() == n);
  const QuadTree& tree = engine_->tree();
  cvec b(n), x(n);
  tree.to_cluster_order(rhs, b);
  tree.to_cluster_order(ccspan{phi.data(), n}, x);
  const std::uint64_t before = engine_->phase_times().applications;
  if (use_jacobi_) {
    // The Krylov unknown is y = M x; convert the initial guess in and
    // the solution out.
    for (std::size_t i = 0; i < x.size(); ++i) x[i] /= minv_clu_[i];
  }
  const BicgstabResult res =
      bicgstab([this](ccspan in, cspan out) { op_forward(in, out); }, b, x,
               opts_, {}, precond_ctx(1, /*herm=*/false));
  if (use_jacobi_) diag_mul(minv_clu_, cvec(x.begin(), x.end()), x);
  ++stats_.solves;
  stats_.bicgs_iterations += static_cast<std::uint64_t>(res.iterations);
  stats_.operator_applications += engine_->phase_times().applications - before;
  stats_.per_solve_iterations.push_back(
      static_cast<std::uint16_t>(res.iterations));
  tree.to_natural_order(x, phi);
  return res;
}

BicgstabResult ForwardSolver::solve_adjoint(ccspan rhs, cspan psi) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(rhs.size() == n && psi.size() == n);
  const QuadTree& tree = engine_->tree();
  cvec b(n), x(n);
  tree.to_cluster_order(rhs, b);
  tree.to_cluster_order(ccspan{psi.data(), n}, x);
  const std::uint64_t before = engine_->phase_times().applications;
  const BicgstabResult res =
      bicgstab([this](ccspan in, cspan out) { op_adjoint(in, out); }, b, x,
               opts_, {}, precond_ctx(1, /*herm=*/true));
  ++stats_.solves;
  stats_.bicgs_iterations += static_cast<std::uint64_t>(res.iterations);
  stats_.operator_applications += engine_->phase_times().applications - before;
  stats_.per_solve_iterations.push_back(
      static_cast<std::uint16_t>(res.iterations));
  tree.to_natural_order(x, psi);
  return res;
}

void ForwardSolver::apply_system(ccspan x, cspan y) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n && y.size() == n);
  const QuadTree& tree = engine_->tree();
  cvec xc(n), yc(n);
  tree.to_cluster_order(x, xc);
  op_forward(xc, yc);
  tree.to_natural_order(yc, y);
}

void ForwardSolver::apply_g0_contrast(ccspan x, cspan y) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n && y.size() == n);
  const QuadTree& tree = engine_->tree();
  cvec xc(n), yc(n);
  tree.to_cluster_order(x, xc);
  diag_mul(contrast_clu_, xc, work_);
  engine_->apply(work_, yc);
  tree.to_natural_order(yc, y);
}

void ForwardSolver::apply_g0_block(ccspan x, cspan y, std::size_t nrhs) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n * nrhs && y.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec xb(lo.size()), yb(lo.size());
  block_pack_natural(lo, tree.perm(), x, xb);
  engine_->apply_block(xb, yb, nrhs);
  block_unpack_natural(lo, tree.perm(), yb, y);
}

void ForwardSolver::apply_g0_herm_block(ccspan x, cspan y, std::size_t nrhs) {
  const std::size_t n = contrast_nat_.size();
  FFW_CHECK(x.size() == n * nrhs && y.size() == n * nrhs);
  const QuadTree& tree = engine_->tree();
  const BlockLayout lo = block_layout(nrhs);
  cvec xb(lo.size()), yb(lo.size());
  block_pack_natural(lo, tree.perm(), x, xb);
  engine_->apply_herm_block(xb, yb, nrhs);
  block_unpack_natural(lo, tree.perm(), yb, y);
}

bool ForwardSolver::panel_solve_impl(ccspan rhs, cspan x, std::size_t nrhs,
                                     double tol, bool adjoint) {
  const double base = opts_.tol;
  const double target = tol > 0.0 ? std::max(tol, base) : base;
  if (mixed_ != nullptr) {
    RefinedOptions ro;
    ro.tol = target;
    // A loose outer target makes ultra-tight inner sweeps pointless:
    // keep the inner tolerance at least as loose as the outer one.
    ro.inner.tol = std::max(ro.inner.tol, target);
    const RefinedResult res = adjoint
                                  ? solve_adjoint_block_refined(rhs, x, nrhs, ro)
                                  : solve_block_refined(rhs, x, nrhs, ro);
    return res.converged;
  }
  opts_.tol = target;
  const BlockBicgstabResult res =
      adjoint ? solve_adjoint_block(rhs, x, nrhs) : solve_block(rhs, x, nrhs);
  opts_.tol = base;
  return res.converged;
}

bool ForwardSolver::solve_panel(ccspan rhs, cspan phi, std::size_t nrhs,
                                double tol) {
  return panel_solve_impl(rhs, phi, nrhs, tol, /*adjoint=*/false);
}

bool ForwardSolver::solve_adjoint_panel(ccspan rhs, cspan psi, std::size_t nrhs,
                                        double tol) {
  return panel_solve_impl(rhs, psi, nrhs, tol, /*adjoint=*/true);
}

}  // namespace ffw
