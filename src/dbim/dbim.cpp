#include "dbim/dbim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.hpp"
#include "obs/obs.hpp"
#include "service/table_cache.hpp"

namespace ffw {

DbimWorkspace::DbimWorkspace(MlfmaEngine& engine, const Transceivers& trx,
                             const CMatrix& measured,
                             const BicgstabOptions& fw_opts)
    : trx_(&trx), measured_(&measured), solver_(engine, fw_opts),
      active_(&solver_), npix_(engine.tree().grid().num_pixels()) {
  FFW_CHECK(measured.rows() == static_cast<std::size_t>(trx.num_receivers()));
  FFW_CHECK(measured.cols() == static_cast<std::size_t>(trx.num_transmitters()));
  meas_norm2_ = 0.0;
  for (std::size_t t = 0; t < measured.cols(); ++t) {
    const double nn = nrm2(measured.col(t));
    meas_norm2_ += nn * nn;
  }
  phi_b_ = CMatrix(npix_, measured.cols());
  phi_b_valid_.assign(measured.cols(), false);
}

void DbimWorkspace::set_backend(BackendKind policy, const CbsOptions& cbs_opts,
                                double contrast_threshold,
                                double escalation_rate,
                                std::shared_ptr<const CbsTables> tables) {
  policy_ = policy;
  auto_threshold_ = contrast_threshold;
  auto_escalation_rate_ = escalation_rate;
  escalated_ = false;
  if (policy == BackendKind::kMlfma) {
    cbs_.reset();
    active_ = &solver_;
    return;
  }
  if (tables) {
    FFW_CHECK(tables->grid.nx() == solver_.tree().grid().nx());
    cbs_ = std::make_unique<CbsEngine>(std::move(tables), cbs_opts);
  } else {
    cbs_ = std::make_unique<CbsEngine>(solver_.tree().grid(), cbs_opts);
  }
  active_ = policy == BackendKind::kCbs ? static_cast<ForwardBackend*>(cbs_.get())
                                        : &solver_;
}

void DbimWorkspace::set_background(ccspan contrast, bool keep_fields) {
  solver_.set_contrast(contrast);
  if (cbs_) {
    cbs_->set_contrast(contrast);
    if (policy_ == BackendKind::kCbs) {
      active_ = cbs_.get();
    } else if (policy_ == BackendKind::kAuto) {
      // Contrast gate, re-evaluated for every new background: CBS while
      // the strongest pixel stays below the threshold (in permittivity
      // units), MLFMA otherwise. An escalation is permanent — once the
      // series has struggled on this reconstruction, trust MLFMA.
      double omax = 0.0;
      for (const cplx& o : contrast) omax = std::max(omax, std::abs(o));
      const double k0 = solver_.tree().grid().k0();
      const bool weak = omax / (k0 * k0) < auto_threshold_;
      active_ = (weak && !escalated_)
                    ? static_cast<ForwardBackend*>(cbs_.get())
                    : &solver_;
    }
  }
  if (!keep_fields) {
    std::fill(phi_b_valid_.begin(), phi_b_valid_.end(), false);
    // Recycle snapshots follow the same reset policy as the warm-started
    // fields: a run that restarts its fields (e.g. crash recovery)
    // re-derives its Krylov seeds from scratch, keeping the recovered
    // trajectory identical to the fault-free one.
    rec_grad_.clear();
    rec_step_.clear();
  }
  // Otherwise background fields stay as warm starts for the next
  // residual pass.
}

void DbimWorkspace::set_recycling(std::size_t depth, double ridge) {
  rec_grad_ = KrylovRecycler(RecycleOptions{depth, ridge});
  rec_step_ = KrylovRecycler(RecycleOptions{depth, ridge});
}

bool DbimWorkspace::block_solve(ccspan rhs, cspan x, std::size_t nrhs,
                                bool adjoint) {
  // Eisenstat-Walker forcing: a positive forcing tolerance (always >=
  // the solver's base tolerance, the driver clamps) loosens the target
  // of every Krylov solve of this DBIM iteration. The ForwardBackend
  // panel API threads the per-call tolerance through either engine.
  const double base = solver_.options().tol;
  const double tol = forcing_tol_ > 0.0 ? std::max(forcing_tol_, base) : base;
  if (active_ == cbs_.get() && cbs_) {
    const bool ok = adjoint ? cbs_->solve_adjoint_panel(rhs, x, nrhs, tol)
                            : cbs_->solve_panel(rhs, x, nrhs, tol);
    if (ok) {
      if (policy_ == BackendKind::kAuto &&
          cbs_->last_info().convergence_rate > auto_escalation_rate_) {
        // Converged, but the series is slowing down: escalate *before*
        // the watchdog has to abort a solve mid-reconstruction.
        escalated_ = true;
        active_ = &solver_;
      }
      return true;
    }
    if (policy_ != BackendKind::kAuto) return false;
    // Watchdog tripped under kAuto: permanently hand the reconstruction
    // to MLFMA and redo this panel there (the partial CBS iterate left
    // in x is a serviceable warm start).
    escalated_ = true;
    active_ = &solver_;
  }
  return adjoint ? solver_.solve_adjoint_panel(rhs, x, nrhs, tol)
                 : solver_.solve_panel(rhs, x, nrhs, tol);
}

double DbimWorkspace::residual_pass_all(cspan residuals) {
  const std::size_t tc = measured_->cols();
  const std::size_t nr = measured_->rows();
  FFW_CHECK(residuals.size() == nr * tc);
  // RHS panel: the owned incident panel; warm-start guesses live
  // directly in the phi_b_ columns, which the block solve updates in
  // place.
  for (std::size_t t = 0; t < tc; ++t) {
    if (!phi_b_valid_[t]) {
      // first iteration: incident field guess
      copy(trx_->incident_field(static_cast<int>(t)), phi_b_.col(t));
      phi_b_valid_[t] = true;
    }
  }
  FFW_CHECK_MSG(block_solve(trx_->incident_panel(),
                            cspan{phi_b_.data(), npix_ * tc}, tc,
                            /*adjoint=*/false),
                "DBIM residual-pass block solve diverged");
  // phi_sca = G_R (O_b .* phi_b) for every column in one projection.
  cvec ophi(npix_ * tc);
  for (std::size_t t = 0; t < tc; ++t) {
    diag_mul(solver_.contrast_natural(), ccspan{phi_b_.col(t).data(), npix_},
             cspan{ophi.data() + t * npix_, npix_});
  }
  trx_->apply_gr(ophi, residuals, tc);
  double cost = 0.0;
  for (std::size_t t = 0; t < tc; ++t) {
    cspan residual{residuals.data() + t * nr, nr};
    sub(residual, measured_->col(t), residual);
    const double rn = nrm2(ccspan{residual.data(), nr});
    cost += rn * rn;
  }
  return cost;
}

void DbimWorkspace::gradient_pass_all(ccspan residuals, cspan grad_accum) {
  const std::size_t tc = measured_->cols();
  const std::size_t nr = measured_->rows();
  FFW_CHECK(residuals.size() == nr * tc && grad_accum.size() == npix_);
  // Blocked adjoint Frechet: g_t = G_R^H b_t, one block adjoint solve of
  // [I - G0 O]^H for all t, then the G0^H products as one blocked apply.
  cvec g1(npix_ * tc), w2(npix_ * tc), w3(npix_ * tc, cplx{}),
      w4(npix_ * tc);
  trx_->apply_gr_herm(residuals, g1, tc);
  for (std::size_t t = 0; t < tc; ++t) {
    diag_mul_conj(solver_.contrast_natural(),
                  ccspan{g1.data() + t * npix_, npix_},
                  cspan{w2.data() + t * npix_, npix_});
  }
  // Column-major natural-order panels are the npanels == 1 block layout;
  // the recycler seeds each transmitter's column independently.
  const BlockLayout lon{npix_, tc, 1};
  rec_grad_.seed(w2, w3, lon);
  FFW_CHECK_MSG(block_solve(w2, w3, tc, /*adjoint=*/true),
                "DBIM gradient-pass block solve diverged");
  rec_grad_.store(w2, w3, lon);
  active_->apply_g0_herm_panel(w3, w4, tc);
  for (std::size_t t = 0; t < tc; ++t) {
    const cplx* phi = phi_b_.col(t).data();
    const cplx* g1t = g1.data() + t * npix_;
    const cplx* w4t = w4.data() + t * npix_;
    for (std::size_t i = 0; i < npix_; ++i)
      grad_accum[i] += std::conj(phi[i]) * (g1t[i] + w4t[i]);
  }
}

void DbimWorkspace::frechet_pass_all(ccspan direction, cspan out) {
  const std::size_t tc = measured_->cols();
  FFW_CHECK(direction.size() == npix_ && out.size() == residual_size());
  // Blocked Frechet apply: u_t = d .* phi_b,t, one blocked G0 apply, one
  // block forward solve, then one panel receiver projection.
  cvec u1(npix_ * tc), u2(npix_ * tc), w(npix_ * tc, cplx{});
  for (std::size_t t = 0; t < tc; ++t) {
    diag_mul(direction, ccspan{phi_b_.col(t).data(), npix_},
             cspan{u1.data() + t * npix_, npix_});
  }
  active_->apply_g0_panel(u1, u2, tc);
  const BlockLayout lon{npix_, tc, 1};
  rec_step_.seed(u2, w, lon);
  FFW_CHECK_MSG(block_solve(u2, w, tc, /*adjoint=*/false),
                "DBIM Frechet-pass block solve diverged");
  rec_step_.store(u2, w, lon);
  for (std::size_t t = 0; t < tc; ++t) {
    diag_mul_acc(solver_.contrast_natural(),
                 ccspan{w.data() + t * npix_, npix_},
                 cspan{u1.data() + t * npix_, npix_});
  }
  trx_->apply_gr(u1, out, tc);
}

double DbimWorkspace::step_pass_all(ccspan direction) {
  const std::size_t tc = measured_->cols();
  const std::size_t nr = measured_->rows();
  cvec sc(nr * tc);
  frechet_pass_all(direction, sc);
  double denom = 0.0;
  for (std::size_t t = 0; t < tc; ++t) {
    const double fn = nrm2(ccspan{sc.data() + t * nr, nr});
    denom += fn * fn;
  }
  return denom;
}

void DbimPasses::scatter(ccspan natural, cspan local) const {
  FFW_CHECK(natural.size() == local.size());
  copy(natural, local);
}

bool DbimPasses::gather(std::span<const ccspan> in, std::span<cvec* const> out,
                        bool /*everywhere*/) {
  FFW_CHECK(in.size() == out.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i]->assign(in[i].begin(), in[i].end());
  return true;
}

std::size_t DbimWorkspace::residual_size() const {
  return measured_->rows() * measured_->cols();
}

void DbimWorkspace::fill_counts(DbimHistory& h) {
  // Both engines may have contributed solves (kAuto switches mid-run);
  // the history totals span whatever mix actually executed.
  const ForwardStats& ms = solver_.stats();
  h.forward_solves = ms.solves;
  h.operator_applications = ms.operator_applications;
  h.bicgstab_iterations = ms.bicgs_iterations;
  h.precond_setup_seconds = ms.precond_setup_seconds;
  if (cbs_) {
    const ForwardStats& cs = cbs_->stats();
    h.forward_solves += cs.solves;
    h.operator_applications += cs.operator_applications;
    h.bicgstab_iterations += cs.bicgs_iterations;
  }
  h.cbs_escalated = escalated_;
}

namespace {

/// The serial workspace with the solver-level DbimOptions applied.
std::unique_ptr<DbimPasses> local_workspace(MlfmaEngine& engine,
                                            const Transceivers& trx,
                                            const CMatrix& measured,
                                            const DbimOptions& opts,
                                            const BicgstabOptions& fw_opts) {
  auto ws = std::make_unique<DbimWorkspace>(engine, trx, measured, fw_opts);
  if (opts.mixed_engine != nullptr) {
    ws->solver().set_mixed_engine(opts.mixed_engine);
  }
  if (opts.near_precondition) {
    ws->solver().set_near_preconditioner(
        true, opts.mixed_engine != nullptr ? Precision::kMixed
                                           : Precision::kDouble);
  }
  if (opts.recycle_depth > 0) {
    ws->set_recycling(static_cast<std::size_t>(opts.recycle_depth),
                      opts.recycle_ridge);
  }
  if (opts.backend != BackendKind::kMlfma) {
    // Shared cache (when wired) hands every sharing job the same CBS
    // kernel spectrum and FFT plans; otherwise build privately.
    std::shared_ptr<const CbsTables> ctab;
    if (opts.table_cache != nullptr) {
      ctab = opts.table_cache->cbs_tables(engine.tree().grid(),
                                          opts.cbs.precision);
    }
    ws->set_backend(opts.backend, opts.cbs, opts.auto_contrast_threshold,
                    opts.auto_escalation_rate, std::move(ctab));
  }
  return ws;
}

}  // namespace

DbimStepper::DbimStepper(MlfmaEngine& engine, const Transceivers& trx,
                         const CMatrix& measured, const DbimOptions& opts,
                         const BicgstabOptions& fw_opts,
                         ccspan initial_contrast)
    : DbimStepper(local_workspace(engine, trx, measured, opts, fw_opts), opts,
                  fw_opts, initial_contrast) {}

DbimStepper::DbimStepper(std::unique_ptr<DbimPasses> passes,
                         const DbimOptions& opts,
                         const BicgstabOptions& fw_opts,
                         ccspan initial_contrast)
    : opts_(opts),
      fw_opts_(fw_opts),
      ws_(std::move(passes)),
      red_(ws_->reducer()),
      n_(ws_->num_pixels()) {
  out_.contrast.assign(n_, cplx{});
  if (!initial_contrast.empty()) ws_->scatter(initial_contrast, out_.contrast);
  grad_.assign(n_, cplx{});
  grad_prev_.assign(n_, cplx{});
  direction_.assign(n_, cplx{});
  residuals_.assign(ws_->residual_size(), cplx{});
  int start_iter = 0;
  if (opts.resume) {
    const DbimCheckpoint& resume = *opts.resume;
    // Refuse to resume across a precision-policy change: the checkpoint
    // records whether the run used a mixed-precision engine, and picking
    // up its trajectory under a different policy silently alters the
    // convergence history the checkpoint's residuals describe.
    FFW_CHECK_MSG(
        resume.mixed_precision == (opts.mixed_engine != nullptr),
        "DBIM resume: checkpoint precision policy (mixed vs fp64) does not "
        "match DbimOptions::mixed_engine");
    // Same contract for the forward-backend policy: a checkpoint from a
    // CBS or kAuto run resumed under a different routing would hand the
    // remaining solves to a different engine than the residual history
    // describes — fail loudly instead.
    FFW_CHECK_MSG(resume.backend == opts.backend,
                  "DBIM resume: checkpoint backend policy does not match "
                  "DbimOptions::backend");
    ws_->scatter(resume.contrast, out_.contrast);
    // The CG memory is optional (a zero-iteration checkpoint has none).
    if (resume.gradient_prev.size() == resume.contrast.size()) {
      ws_->scatter(resume.gradient_prev, grad_prev_);
      grad_prev_norm2_ = std::pow(nrm2(resume.gradient_prev), 2);
    }
    if (resume.direction.size() == resume.contrast.size()) {
      ws_->scatter(resume.direction, direction_);
    }
    start_iter = resume.iteration;
    out_.history.relative_residual.assign(resume.residual_history.begin(),
                                          resume.residual_history.end());
  }
  iter_ = start_iter;
  done_ = iter_ >= opts_.max_iterations;
  opts_.resume = nullptr;  // consumed above; don't keep the borrow alive
}

double DbimStepper::last_residual() const {
  return out_.history.relative_residual.empty()
             ? std::numeric_limits<double>::quiet_NaN()
             : out_.history.relative_residual.back();
}

bool DbimStepper::step() {
  if (done_) return false;
  const DbimOptions& opts = opts_;
  DbimPasses& ws = *ws_;
  DbimResult& out = out_;
  cvec& grad = grad_;
  cvec& grad_prev = grad_prev_;
  cvec& direction = direction_;
  const std::size_t n = n_;
  const int iter = iter_;

  FFW_TRACE_SPAN("dbim.iteration", iter);
  if (opts.adaptive_forcing) {
    // Lagged Eisenstat-Walker forcing: every solve of this iteration
    // targets c * (last outer residual), clamped to [base_tol, cap].
    // On resume the lagged residual comes from the checkpointed
    // history, so the recovered tolerances are bit-identical.
    const auto& hist = out.history.relative_residual;
    const double base = fw_opts_.tol;
    double ftol = std::max(base, opts.forcing_cap);
    if (!hist.empty()) {
      ftol = std::clamp(opts.forcing_c * hist.back(), base,
                        std::max(base, opts.forcing_cap));
    }
    ws.set_forcing_tolerance(ftol);
  }
  ws.set_background(out.contrast, opts.warm_start_fields);

  // Pass 1+2: residuals and gradient, each as one blocked solve over
  // the illumination set (shared-operator multi-RHS structure). The
  // gradient pass combines across illumination groups (paper Fig. 4,
  // sync 1).
  std::fill(grad.begin(), grad.end(), cplx{});
  double cost;
  {
    FFW_TRACE_SPAN("dbim.residual_pass", iter);
    cost = ws.residual_pass_all(residuals_);
  }
  {
    FFW_TRACE_SPAN("dbim.gradient_pass", iter);
    ws.gradient_pass_all(residuals_, grad);
  }
  const double relres = std::sqrt(cost / ws.measurement_norm2());
  out.history.relative_residual.push_back(relres);
  if (opts.progress && ws.leader()) opts.progress(iter, relres);
  if (opts.residual_tol > 0.0 && relres < opts.residual_tol) {
    done_ = true;
    return false;
  }

  // Tikhonov term: grad(lambda ||O||^2) = lambda * O (Wirtinger
  // convention, matching the data-term gradient F^H b).
  if (opts.tikhonov > 0.0) {
    axpy(cplx{opts.tikhonov}, ccspan{out.contrast}, grad);
  }

  // Conjugate direction (Polak-Ribiere+ with automatic restart). Every
  // scalar is reduced over the ranks sharing the pixels, so all ranks
  // take the identical step.
  const double gnorm2 = red_.sum(std::pow(nrm2(grad), 2));
  if (gnorm2 == 0.0) {
    done_ = true;
    return false;
  }
  double beta = 0.0;
  if (opts.conjugate_gradient && iter > 0 && grad_prev_norm2_ > 0.0) {
    cplx num{};
    for (std::size_t i = 0; i < n; ++i)
      num += std::conj(grad[i]) * (grad[i] - grad_prev[i]);
    beta = std::max(0.0, red_.sum(num).real() / grad_prev_norm2_);
  }
  if (beta == 0.0) {
    for (std::size_t i = 0; i < n; ++i) direction[i] = -grad[i];
  } else {
    for (std::size_t i = 0; i < n; ++i)
      direction[i] = -grad[i] + beta * direction[i];
  }

  // Pass 3: quadratic-fit step length (paper eq. 5 generalised to CG
  // directions), one blocked solve for the illumination set (Fig. 4,
  // sync 2).
  double denom;
  {
    FFW_TRACE_SPAN("dbim.step_pass", iter);
    denom = ws.step_pass_all(direction);
  }
  if (opts.tikhonov > 0.0) {
    denom += opts.tikhonov * red_.sum(std::pow(nrm2(direction), 2));
  }
  if (denom == 0.0) {
    done_ = true;
    return false;
  }
  double num = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    num -= (std::conj(grad[i]) * direction[i]).real();
  const double alpha = red_.sum(num) / denom;
  axpy(cplx{alpha}, direction, out.contrast);

  copy(grad, grad_prev);
  grad_prev_norm2_ = gnorm2;
  ++iter_;

  if (opts.checkpoint) {
    // Natural-order state, assembled on the leader (collective).
    DbimCheckpoint state;
    const ccspan in[] = {out.contrast, grad_prev, direction};
    cvec* const dst[] = {&state.contrast, &state.gradient_prev,
                         &state.direction};
    if (ws.gather(in, dst, /*everywhere=*/false)) {
      state.iteration = iter_;
      state.mixed_precision = opts.mixed_engine != nullptr;
      state.backend = opts.backend;
      state.residual_history.assign(out.history.relative_residual.begin(),
                                    out.history.relative_residual.end());
      opts.checkpoint(state);
    }
  }
  if (iter_ >= opts.max_iterations) done_ = true;
  return !done_;
}

DbimResult DbimStepper::result() {
  ws_->fill_counts(out_.history);
  out_.history.backend = opts_.backend;
  cvec natural;
  const ccspan in[] = {out_.contrast};
  cvec* const dst[] = {&natural};
  ws_->gather(in, dst, /*everywhere=*/true);
  out_.contrast = std::move(natural);
  return std::move(out_);
}

DbimResult dbim_reconstruct(MlfmaEngine& engine, const Transceivers& trx,
                            const CMatrix& measured, const DbimOptions& opts,
                            const BicgstabOptions& fw_opts,
                            ccspan initial_contrast) {
  DbimStepper stepper(engine, trx, measured, opts, fw_opts, initial_contrast);
  while (stepper.step()) {
  }
  return stepper.result();
}

}  // namespace ffw
