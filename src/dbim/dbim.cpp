#include "dbim/dbim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "obs/obs.hpp"
#include "service/table_cache.hpp"

namespace ffw {

namespace {

/// Reserved tag of the natural-order gathers (checkpoint and result).
constexpr int kTagGather = -4000;

}  // namespace

DbimWorkspace::DbimWorkspace(MlfmaEngine& engine, const Transceivers& trx,
                             const CMatrix& measured,
                             const BicgstabOptions& fw_opts)
    : DbimWorkspace(std::make_unique<ForwardSolver>(engine, fw_opts), trx,
                    measured, fw_opts) {}

DbimWorkspace::DbimWorkspace(std::unique_ptr<ForwardBackend> mlfma,
                             const Transceivers& trx, const CMatrix& measured,
                             const BicgstabOptions& fw_opts, DbimShare share)
    : trx_(&trx), measured_(&measured), base_tol_(fw_opts.tol),
      share_(std::move(share)), mlfma_(std::move(mlfma)),
      active_(mlfma_.get()) {
  FFW_CHECK(measured.rows() == static_cast<std::size_t>(trx.num_receivers()));
  FFW_CHECK(measured.cols() == static_cast<std::size_t>(trx.num_transmitters()));
  if (share_.transmitters.empty()) {
    // The default share: every pixel and transmitter in natural order,
    // on rank 0 alone in every group.
    for (int t = 0; t < trx.num_transmitters(); ++t)
      share_.transmitters.push_back(t);
    share_.layout = BlockLayout{trx.grid().num_pixels(), measured.cols(), 1};
    share_.tree_group = share_.column_group = share_.window = {0};
  }
  lo_ = share_.layout;
  FFW_CHECK(lo_.nrhs == share_.transmitters.size());
  if (!share_.order.empty())
    pixels_ = share_.order.subspan(share_.first, lo_.rows());
  for (std::size_t t = 0; t < measured.cols(); ++t) {
    const double nn = nrm2(measured.col(t));
    meas_norm2_ += nn * nn;
  }
  phi_b_.assign(lo_.size(), cplx{});
  load_incident(phi_b_);
}

void DbimWorkspace::set_backend(BackendKind policy, const CbsOptions& cbs_opts,
                                std::shared_ptr<const CbsTables> tables) {
  policy_ = policy;
  escalated_ = false;
  if (policy == BackendKind::kMlfma) {
    cbs_.reset();
    active_ = mlfma_.get();
    return;
  }
  if (tables) {
    FFW_CHECK(tables->grid.nx() == trx_->grid().nx());
    cbs_ = std::make_unique<CbsEngine>(std::move(tables), cbs_opts);
  } else {
    cbs_ = std::make_unique<CbsEngine>(trx_->grid(), cbs_opts);
  }
  active_ = cbs_.get();
}

void DbimWorkspace::set_background(ccspan contrast, bool keep_fields) {
  mlfma_->set_contrast(contrast);
  if (cbs_) cbs_->set_contrast(contrast);
  // Otherwise the background fields stay as warm starts for the next
  // residual pass. Without warm starts every residual pass restarts from
  // the incident fields, and the recycle snapshots reset with them: a
  // run that restarts its fields (e.g. crash recovery) re-derives its
  // Krylov seeds from scratch, so each iterate is a pure function of the
  // checkpointed outer-loop state.
  if (!keep_fields) {
    load_incident(phi_b_);
    rec_grad_.clear();
    rec_step_.clear();
  }
}

void DbimWorkspace::set_recycling(std::size_t depth, double ridge) {
  rec_grad_ = KrylovRecycler(RecycleOptions{depth, ridge});
  rec_step_ = KrylovRecycler(RecycleOptions{depth, ridge});
}

bool DbimWorkspace::block_solve(ccspan rhs, cspan x, bool adjoint) {
  // Eisenstat-Walker forcing: a positive forcing tolerance (always >=
  // the solver's base tolerance, the driver clamps) loosens the target
  // of every Krylov solve of this DBIM iteration. The ForwardBackend
  // panel API threads the per-call tolerance through either engine.
  const double tol =
      forcing_tol_ > 0.0 ? std::max(forcing_tol_, base_tol_) : base_tol_;
  const std::size_t nrhs = lo_.nrhs;
  if (active_ == cbs_.get()) {
    const bool ok = adjoint ? cbs_->solve_adjoint_panel(rhs, x, nrhs, tol)
                            : cbs_->solve_panel(rhs, x, nrhs, tol);
    if (ok || policy_ != BackendKind::kAuto) return ok;
    // An FFT solve missed its tolerance under kAuto: redo this panel on
    // MLFMA (the partial iterate left in x is a serviceable warm start)
    // and stay there for the rest of the run.
    escalated_ = true;
    active_ = mlfma_.get();
  }
  return adjoint ? mlfma_->solve_adjoint_panel(rhs, x, nrhs, tol)
                 : mlfma_->solve_panel(rhs, x, nrhs, tol);
}

void DbimWorkspace::load_incident(cspan blk) const {
  const ccspan panel = trx_->incident_panel();
  const std::size_t n = trx_->grid().num_pixels();
  for_panel_parts(lo_, [&](std::size_t c, std::size_t i0, std::size_t len) {
    for (std::size_t i = 0; i < lo_.nrhs; ++i) {
      const cplx* col =
          panel.data() + static_cast<std::size_t>(share_.transmitters[i]) * n;
      cplx* out = blk.data() + lo_.at(c, i) + i0;
      for (std::size_t j = 0; j < len; ++j)
        out[j] = col[pixel(c * lo_.panel + i0 + j)];
    }
  });
}

int DbimWorkspace::rank() const {
  return share_.comm != nullptr ? share_.comm->rank() : 0;
}

void DbimWorkspace::group_sum(cspan v, const std::vector<int>& group) {
  if (share_.comm != nullptr) share_.comm->group_allreduce_sum(v, group);
}

void DbimWorkspace::group_sum(rspan v, const std::vector<int>& group) {
  if (share_.comm != nullptr) share_.comm->group_allreduce_sum(v, group);
}

void DbimWorkspace::project(ccspan v, cspan cols) {
  gr_project(trx_->gr(), pixels_, lo_, v, cols);
  group_sum(cols, share_.tree_group);
}

double DbimWorkspace::illumination_sum(double v) {
  // A whole-cluster window uses the cluster allreduce; a sub-window only
  // group collectives over its own ranks, never the global allreduce
  // (which would deadlock against the other band groups running their
  // own windows concurrently). Every tree rank holds its group's
  // per-illumination sums in full, so the window sum counts each of them
  // once per tree rank.
  Comm* comm = share_.comm;
  if (comm == nullptr) return v;
  const double total = static_cast<int>(share_.window.size()) == comm->size()
                           ? comm->allreduce_sum(v)
                           : comm->group_allreduce_sum(v, share_.window);
  return total / static_cast<double>(share_.tree_group.size());
}

double DbimWorkspace::residual_pass_all(cspan residuals) {
  const std::size_t nr = measured_->rows();
  FFW_CHECK(residuals.size() == residual_size());
  // The background fields solve in place: their warm-start guesses live
  // in phi_b_, which the block solve updates. The pass vectors are block
  // scratch (linalg/scratch.hpp).
  ScratchFrame frame;
  const cspan rhs = frame.vec(lo_.size());
  load_incident(rhs);
  FFW_CHECK_MSG(block_solve(rhs, phi_b_, /*adjoint=*/false),
                "DBIM residual-pass block solve diverged");
  // phi_sca = G_R (O_b .* phi_b) for every column in one projection.
  const cspan ophi = frame.vec(lo_.size());
  block_diag_mul(lo_, mlfma_->contrast(), phi_b_, ophi);
  project(ophi, residuals);
  double cost = 0.0;
  for (std::size_t i = 0; i < lo_.nrhs; ++i) {
    cspan residual{residuals.data() + i * nr, nr};
    sub(residual,
        measured_->col(static_cast<std::size_t>(share_.transmitters[i])),
        residual);
    const double rn = nrm2(ccspan{residual.data(), nr});
    cost += rn * rn;
  }
  return illumination_sum(cost);
}

void DbimWorkspace::gradient_pass_all(ccspan residuals, cspan grad_accum) {
  FFW_CHECK(residuals.size() == residual_size() &&
            grad_accum.size() == num_pixels());
  // Blocked adjoint Frechet on the transposed system (dbim.hpp):
  // F_t^H b_t = conj(phi_b,t .* y_t) with [I - G0 O] y_t = conj(G_R^H b_t),
  // one block forward solve for all t and no bare G0 apply.
  ScratchFrame frame;
  const cspan g = frame.vec(lo_.size()), y = frame.vec(lo_.size());
  gr_project_herm(trx_->gr(), pixels_, lo_, residuals, g);
  block_conj(lo_, g, g);
  // Krylov recycling: seed from the least-squares combination of the
  // retained (rhs, solution) pairs, one batched tree-group reduction.
  rec_grad_.seed(g, y, lo_, reducer());
  FFW_CHECK_MSG(block_solve(g, y, /*adjoint=*/false),
                "DBIM gradient-pass block solve diverged");
  rec_grad_.store(g, y, lo_);
  for_panel_parts(lo_, [&](std::size_t c, std::size_t i0, std::size_t n) {
    cplx* gq = grad_accum.data() + c * lo_.panel + i0;
    for (std::size_t r = 0; r < lo_.nrhs; ++r) {
      const std::size_t o = lo_.at(c, r) + i0;
      const cplx* phi = phi_b_.data() + o;
      const cplx* yp = y.data() + o;
      for (std::size_t i = 0; i < n; ++i) gq[i] += std::conj(phi[i] * yp[i]);
    }
  });
  // Combine across illumination groups (paper Fig. 4, sync 1).
  group_sum(grad_accum, share_.column_group);
}

void DbimWorkspace::frechet_pass_all(ccspan direction, cspan out) {
  FFW_CHECK(direction.size() == num_pixels() && out.size() == residual_size());
  // Blocked Frechet apply on the transposed system (dbim.hpp):
  // F_t d = G_R conj(z_t) with [I - G0 O]^H z_t = conj(d .* phi_b,t), one
  // block adjoint solve for all t, then one panel receiver projection.
  ScratchFrame frame;
  const cspan u = frame.vec(lo_.size()), z = frame.vec(lo_.size());
  block_diag_mul(lo_, direction, phi_b_, u);
  block_conj(lo_, u, u);
  rec_step_.seed(u, z, lo_, reducer());
  FFW_CHECK_MSG(block_solve(u, z, /*adjoint=*/true),
                "DBIM Frechet-pass block solve diverged");
  rec_step_.store(u, z, lo_);
  block_conj(lo_, z, z);
  project(z, out);
}

double DbimWorkspace::step_pass_all(ccspan direction) {
  const std::size_t nr = measured_->rows();
  ScratchFrame frame;
  const cspan sc = frame.vec(residual_size());
  frechet_pass_all(direction, sc);
  double denom = 0.0;
  for (std::size_t i = 0; i < lo_.nrhs; ++i) {
    const double fn = nrm2(ccspan{sc.data() + i * nr, nr});
    denom += fn * fn;
  }
  return illumination_sum(denom);
}

std::size_t DbimWorkspace::residual_size() const {
  return measured_->rows() * lo_.nrhs;
}

DotReducer DbimWorkspace::reducer() {
  return DotReducer{[this](cspan v) {
                      FFW_TRACE_SPAN("krylov.reduce");
                      group_sum(v, share_.tree_group);
                    },
                    [this](rspan v) {
                      FFW_TRACE_SPAN("krylov.reduce");
                      group_sum(v, share_.tree_group);
                    }};
}

bool DbimWorkspace::leader() const { return rank() == share_.window.front(); }

void DbimWorkspace::scatter(ccspan natural, cspan local) const {
  FFW_CHECK(natural.size() == trx_->grid().num_pixels() &&
            local.size() == num_pixels());
  for (std::size_t q = 0; q < local.size(); ++q) local[q] = natural[pixel(q)];
}

bool DbimWorkspace::gather(std::span<const ccspan> in,
                           std::span<cvec* const> out, bool everywhere) {
  FFW_CHECK(in.size() == out.size());
  Comm* comm = share_.comm;
  if (comm == nullptr) {
    for (std::size_t k = 0; k < in.size(); ++k)
      out[k]->assign(in[k].begin(), in[k].end());
    return true;
  }
  // The pixel vectors are replicated across illumination groups, so the
  // first group's tree ranks ship their slices (one message each, all
  // vectors packed) to the window leader, which places them in natural
  // order; `everywhere` then broadcasts over the window.
  const std::size_t nv = in.size(), npix = trx_->grid().num_pixels();
  const int lead = share_.window.front();
  if (share_.tree_group.front() == lead) {
    cvec pack(nv * num_pixels());
    for (std::size_t k = 0; k < nv; ++k)
      std::copy(in[k].begin(), in[k].end(),
                pack.begin() + static_cast<std::ptrdiff_t>(k * num_pixels()));
    if (!leader()) {
      comm->send(lead, kTagGather, ccspan{pack});
    } else {
      for (cvec* o : out) o->assign(npix, cplx{});
      std::size_t first = 0;  // the slices tile `order` in rank order
      for (const int r : share_.tree_group) {
        const cvec part =
            r == lead ? std::move(pack) : comm->recv<cplx>(r, kTagGather);
        const std::size_t n = part.size() / nv;
        for (std::size_t k = 0; k < nv; ++k)
          for (std::size_t q = 0; q < n; ++q)
            (*out[k])[share_.order[first + q]] = part[k * n + q];
        first += n;
      }
    }
  }
  if (!everywhere) return leader();
  for (cvec* o : out) {
    o->resize(npix);
    comm->group_bcast(cspan{*o}, share_.window);
  }
  return true;
}

void DbimWorkspace::fill_counts(DbimHistory& h) {
  // Both engines may have contributed solves (a kAuto fallback switches
  // mid-run); the history totals span whatever mix actually executed.
  // Each tree rank of a group takes part in every block solve of the
  // group, so summing one tree rank's counts over the illumination
  // groups (the column group) gives the run's totals.
  const ForwardStats& ms = mlfma_->stats();
  double c[3] = {static_cast<double>(ms.solves),
                 static_cast<double>(ms.operator_applications),
                 static_cast<double>(ms.bicgs_iterations)};
  if (cbs_) {
    const ForwardStats& cs = cbs_->stats();
    c[0] += static_cast<double>(cs.solves);
    c[1] += static_cast<double>(cs.operator_applications);
    c[2] += static_cast<double>(cs.bicgs_iterations);
  }
  group_sum(rspan{c, 3}, share_.column_group);
  h.forward_solves = static_cast<std::uint64_t>(c[0]);
  h.operator_applications = static_cast<std::uint64_t>(c[1]);
  h.bicgstab_iterations = static_cast<std::uint64_t>(c[2]);
  h.cbs_escalated = escalated_;
  // Every window rank builds its preconditioner at each background
  // update and the iteration waits for the slowest build: all-gather
  // the build times over the window, sum the per-build maxima.
  h.precond_setup_seconds = 0.0;
  const std::vector<double>& builds = ms.precond_setups;
  const std::size_t nb = builds.size();
  if (nb == 0) return;
  const std::size_t nw = share_.window.size();
  const std::size_t me =
      static_cast<std::size_t>(rank() - share_.window.front());
  rvec all(nw * nb, 0.0);
  std::copy(builds.begin(), builds.end(),
            all.begin() + static_cast<std::ptrdiff_t>(me * nb));
  group_sum(rspan{all}, share_.window);
  for (std::size_t i = 0; i < nb; ++i) {
    double slowest = 0.0;
    for (std::size_t w = 0; w < nw; ++w)
      slowest = std::max(slowest, all[w * nb + i]);
    h.precond_setup_seconds += slowest;
  }
}

namespace {

/// The whole-problem workspace with the solver-level DbimOptions applied.
std::unique_ptr<DbimWorkspace> local_workspace(MlfmaEngine& engine,
                                               const Transceivers& trx,
                                               const CMatrix& measured,
                                               const DbimOptions& opts,
                                               const BicgstabOptions& fw_opts) {
  auto solver = std::make_unique<ForwardSolver>(engine, fw_opts);
  if (opts.mixed_engine != nullptr) {
    solver->set_mixed_engine(opts.mixed_engine);
  }
  if (opts.near_precondition) {
    solver->set_near_preconditioner(
        true, opts.mixed_engine != nullptr ? Precision::kMixed
                                           : Precision::kDouble);
  }
  auto ws = std::make_unique<DbimWorkspace>(std::move(solver), trx, measured,
                                            fw_opts);
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
    ws->set_backend(opts.backend, opts.cbs, std::move(ctab));
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

DbimStepper::DbimStepper(std::unique_ptr<DbimWorkspace> ws,
                         const DbimOptions& opts,
                         const BicgstabOptions& fw_opts,
                         ccspan initial_contrast)
    : opts_(opts),
      fw_opts_(fw_opts),
      ws_(std::move(ws)),
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

DbimStepper::~DbimStepper() {
  // The passes of this run sized the thread's block scratch; hand it
  // back so a finished reconstruction holds nothing.
  scratch_release();
}

double DbimStepper::last_residual() const {
  return out_.history.relative_residual.empty()
             ? std::numeric_limits<double>::quiet_NaN()
             : out_.history.relative_residual.back();
}

bool DbimStepper::step() {
  if (done_) return false;
  const DbimOptions& opts = opts_;
  DbimWorkspace& ws = *ws_;
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
  // sync 1). An iteration that meets the residual tolerance stops after
  // its residual pass: its gradient would go unused.
  double cost;
  {
    FFW_TRACE_SPAN("dbim.residual_pass", iter);
    cost = ws.residual_pass_all(residuals_);
  }
  const double relres = std::sqrt(cost / ws.measurement_norm2());
  out.history.relative_residual.push_back(relres);
  if (opts.progress && ws.leader()) opts.progress(iter, relres);
  if (opts.residual_tol > 0.0 && relres < opts.residual_tol) {
    done_ = true;
    return false;
  }
  std::fill(grad.begin(), grad.end(), cplx{});
  {
    FFW_TRACE_SPAN("dbim.gradient_pass", iter);
    ws.gradient_pass_all(residuals_, grad);
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
