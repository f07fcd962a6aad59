#include "dbim/parallel_driver.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "forward/precond.hpp"
#include "forward/recycle.hpp"
#include "linalg/kernels.hpp"
#include "service/table_cache.hpp"

namespace ffw {

namespace {

/// Reserved tag of the natural-order gathers (checkpoint and result).
constexpr int kTagGather = -4000;

/// The DbimPasses of one rank of the 2-D grid: the rank's slice of the
/// contrast (its sub-tree's pixels, cluster order) for the illuminations
/// of its group.
class PartitionedWorkspace final : public DbimPasses {
 public:
  PartitionedWorkspace(Comm& comm, int rank_base, int illum_groups,
                       const PartitionedMlfma& pm, const QuadTree& tree,
                       const Transceivers& trx, const CMatrix& measured,
                       const DbimOptions& opts, const BicgstabOptions& fw_opts)
      : comm_(&comm), pm_(&pm), tree_(&tree), trx_(&trx),
        measured_(&measured), fw_opts_(fw_opts),
        near_precondition_(opts.near_precondition), window_base_(rank_base),
        tree_ranks_(pm.nranks()) {
    FFW_CHECK_MSG(opts.backend == BackendKind::kMlfma,
                  "parallel DBIM runs on the partitioned MLFMA engine only; "
                  "CBS/auto backend routing is a serial-driver feature");
    FFW_CHECK_MSG(opts.mixed_engine == nullptr,
                  "parallel DBIM runs the fp64 partitioned engine only; "
                  "DbimOptions::mixed_engine is a serial-driver feature");
    if (near_precondition_) {
      FFW_CHECK_MSG(pm.nearfield().precision() == Precision::kDouble,
                    "parallel DBIM near-field preconditioner needs fp64 "
                    "near-field tables");
    }
    const int tr = tree_ranks_;
    const int window = illum_groups * tr;
    const int wrank = comm.rank() - rank_base;
    FFW_CHECK_MSG(illum_groups >= 1 && wrank >= 0 && wrank < window &&
                      rank_base + window <= comm.size(),
                  "parallel DBIM: calling rank outside its window");
    wrank_ = wrank;
    group_ = wrank / tr;
    tree_rank_ = wrank % tr;
    tree_base_ = rank_base + group_ * tr;
    for (int r = 0; r < tr; ++r) tree_group_.push_back(tree_base_ + r);
    for (int g = 0; g < illum_groups; ++g)
      column_group_.push_back(rank_base + g * tr + tree_rank_);
    for (int r = 0; r < window; ++r) window_ranks_.push_back(rank_base + r);

    nloc_ = pm.local_pixels(tree_rank_);
    nat_idx_ = natural_indices(tree_rank_);
    npix_ = tree.grid().num_pixels();
    const int t_count = trx.num_transmitters();
    for (int t = group_; t < t_count; t += illum_groups) local_t_.push_back(t);
    const std::size_t npl = static_cast<std::size_t>(tree.pixels_per_leaf());
    lo_ = BlockLayout{npl, local_t_.size(), nloc_ / npl};
    o_loc_.assign(nloc_, cplx{});
    phi_b_.assign(lo_.size(), cplx{});
    reset_phi_to_incident();
    if (opts.recycle_depth > 0) {
      const RecycleOptions ro{static_cast<std::size_t>(opts.recycle_depth),
                              opts.recycle_ridge};
      rec_grad_ = KrylovRecycler(ro);
      rec_step_ = KrylovRecycler(ro);
    }
    meas_norm2_ = 0.0;
    for (std::size_t t = 0; t < measured.cols(); ++t) {
      const double nn = nrm2(measured.col(t));
      meas_norm2_ += nn * nn;
    }
  }

  std::size_t num_pixels() const override { return nloc_; }
  std::size_t residual_size() const override {
    return measured_->rows() * local_t_.size();
  }
  double measurement_norm2() const override { return meas_norm2_; }
  void set_forcing_tolerance(double tol) override { forcing_tol_ = tol; }

  void set_background(ccspan contrast, bool keep_fields) override {
    copy(contrast, o_loc_);
    // Rank-local block-Jacobi for the new background: it only inverts
    // leaf self blocks this rank owns, so the factorisation is
    // communication-free.
    if (near_precondition_) {
      const Timer timer;
      precond_ = std::make_unique<NearFieldBlockJacobi>(
          pm_->nearfield().type(4), ccspan{o_loc_}, Precision::kDouble);
      precond_setup_s_.push_back(timer.seconds());
    }
    // Serial warm-start policy: without warm starts every residual pass
    // restarts from the incident fields and the recycle histories reset
    // with them, so each iterate is a pure function of the checkpointed
    // outer-loop state (the crash-recovery tests rely on this).
    if (!keep_fields) {
      reset_phi_to_incident();
      rec_grad_.clear();
      rec_step_.clear();
    }
  }

  /// Residual pass over the group's illuminations as one block solve.
  /// Every tree rank holds the group's residuals (replicated), so the
  /// window sum counts each illumination tree_ranks times.
  double residual_pass_all(cspan residuals) override {
    double cost = 0.0;
    if (!local_t_.empty()) {
      const std::size_t nr = measured_->rows();
      cvec rhs(lo_.size());
      load_incident(rhs);
      FFW_CHECK_MSG(solve_block(rhs, phi_b_, /*adjoint=*/false),
                    "parallel DBIM forward solve diverged");
      cvec v(lo_.size());
      block_diag_mul(lo_, o_loc_, phi_b_, v);
      gr_full_block(v, residuals);
      for (std::size_t i = 0; i < lo_.nrhs; ++i) {
        cspan residual{residuals.data() + i * nr, nr};
        sub(residual, measured_->col(static_cast<std::size_t>(local_t_[i])),
            residual);
        const double rn = nrm2(ccspan{residual.data(), nr});
        cost += rn * rn;
      }
    }
    return window_sum(cost) / tree_ranks_;
  }

  /// grad += sum_t F_t^H b_t: one block adjoint solve over the group's
  /// illuminations, then the combine across illumination groups.
  void gradient_pass_all(ccspan residuals, cspan grad) override {
    if (!local_t_.empty()) {
      cvec g1(lo_.size()), w2(lo_.size()), w3(lo_.size(), cplx{}),
          w4(lo_.size());
      gr_project_herm(trx_->gr(), nat_idx_, lo_, residuals, g1);
      block_diag_mul_conj(lo_, o_loc_, g1, w2);
      // Krylov recycling: seed from the least-squares combination of the
      // retained (rhs, solution) pairs — collective over the tree group,
      // one batched reduction.
      rec_grad_.seed(w2, w3, lo_, reducer());
      FFW_CHECK_MSG(solve_block(w2, w3, /*adjoint=*/true),
                    "parallel DBIM gradient-pass block solve diverged");
      rec_grad_.store(w2, w3, lo_);
      pm_->apply_herm_block(*comm_, w3, w4, lo_.nrhs, tree_base_);
      for (std::size_t c = 0; c < lo_.npanels; ++c) {
        cplx* gq = grad.data() + c * lo_.panel;
        for (std::size_t r = 0; r < lo_.nrhs; ++r) {
          const cplx* phi = phi_b_.data() + lo_.at(c, r);
          const cplx* g1p = g1.data() + lo_.at(c, r);
          const cplx* w4p = w4.data() + lo_.at(c, r);
          for (std::size_t i = 0; i < lo_.panel; ++i)
            gq[i] += std::conj(phi[i]) * (g1p[i] + w4p[i]);
        }
      }
    }
    comm_->group_allreduce_sum(grad, column_group_);
  }

  /// sum_t ||F_t d||^2 with one block forward solve per group.
  double step_pass_all(ccspan d) override {
    double denom = 0.0;
    if (!local_t_.empty()) {
      const std::size_t nr = measured_->rows();
      cvec u1(lo_.size()), u2(lo_.size()), w(lo_.size(), cplx{});
      block_diag_mul(lo_, d, phi_b_, u1);
      pm_->apply_block(*comm_, u1, u2, lo_.nrhs, tree_base_);
      rec_step_.seed(u2, w, lo_, reducer());
      FFW_CHECK_MSG(solve_block(u2, w, /*adjoint=*/false),
                    "parallel DBIM step-pass block solve diverged");
      rec_step_.store(u2, w, lo_);
      for (std::size_t c = 0; c < lo_.npanels; ++c) {
        const cplx* op = o_loc_.data() + c * lo_.panel;
        for (std::size_t r = 0; r < lo_.nrhs; ++r) {
          const cplx* wp = w.data() + lo_.at(c, r);
          cplx* up = u1.data() + lo_.at(c, r);
          for (std::size_t i = 0; i < lo_.panel; ++i) up[i] += op[i] * wp[i];
        }
      }
      cvec sc(nr * lo_.nrhs);
      gr_full_block(u1, sc);
      for (std::size_t i = 0; i < lo_.nrhs; ++i) {
        const double fn = nrm2(ccspan{sc.data() + i * nr, nr});
        denom += fn * fn;
      }
    }
    return window_sum(denom) / tree_ranks_;
  }

  DotReducer reducer() override {
    return DotReducer{
        [this](cspan v) { comm_->group_allreduce_sum(v, tree_group_); },
        [this](rspan v) { comm_->group_allreduce_sum(v, tree_group_); }};
  }

  bool leader() const override { return wrank_ == 0; }

  void scatter(ccspan natural, cspan local) const override {
    FFW_CHECK(natural.size() == npix_ && local.size() == nloc_);
    for (std::size_t q = 0; q < nloc_; ++q) local[q] = natural[nat_idx_[q]];
  }

  /// The pixel vectors are replicated across illumination groups, so
  /// group 0's tree ranks ship their slices (one message each, all
  /// vectors packed) to the window leader, which scatters them into
  /// natural order; `everywhere` then broadcasts over the window.
  bool gather(std::span<const ccspan> in, std::span<cvec* const> out,
              bool everywhere) override {
    FFW_CHECK(in.size() == out.size());
    const std::size_t nv = in.size();
    if (group_ == 0) {
      cvec pack(nv * nloc_);
      for (std::size_t k = 0; k < nv; ++k)
        std::copy(in[k].begin(), in[k].end(),
                  pack.begin() + static_cast<std::ptrdiff_t>(k * nloc_));
      if (!leader()) {
        comm_->send(window_base_, kTagGather, ccspan{pack});
      } else {
        for (cvec* o : out) o->assign(npix_, cplx{});
        for (int r = 0; r < tree_ranks_; ++r) {
          const cvec part =
              r == 0 ? std::move(pack)
                     : comm_->recv<cplx>(window_base_ + r, kTagGather);
          const std::vector<std::uint32_t> nat = natural_indices(r);
          FFW_CHECK(part.size() == nv * nat.size());
          for (std::size_t k = 0; k < nv; ++k)
            for (std::size_t q = 0; q < nat.size(); ++q)
              (*out[k])[nat[q]] = part[k * nat.size() + q];
        }
      }
    }
    if (!everywhere) return leader();
    for (cvec* o : out) {
      o->resize(npix_);
      comm_->group_bcast(cspan{*o}, window_ranks_);
    }
    return true;
  }

  /// Each tree rank of a group takes part in every block solve of the
  /// group, so summing one tree rank's counts over the illumination
  /// groups (the column group) gives the run's totals.
  void fill_counts(DbimHistory& h) override {
    double c[3] = {static_cast<double>(solves_),
                   static_cast<double>(applications_),
                   static_cast<double>(iterations_)};
    comm_->group_allreduce_sum(rspan{c, 3}, column_group_);
    h.forward_solves = static_cast<std::uint64_t>(c[0]);
    h.operator_applications = static_cast<std::uint64_t>(c[1]);
    h.bicgstab_iterations = static_cast<std::uint64_t>(c[2]);
    // Every window rank builds its preconditioner at each background
    // update and the iteration waits for the slowest build: all-gather
    // the build times over the window, sum the per-build maxima.
    h.precond_setup_seconds = 0.0;
    if (!near_precondition_) return;
    const std::size_t nb = precond_setup_s_.size();
    const std::size_t nw = window_ranks_.size();
    rvec all(nw * nb, 0.0);
    std::copy(precond_setup_s_.begin(), precond_setup_s_.end(),
              all.begin() + wrank_ * static_cast<std::ptrdiff_t>(nb));
    comm_->group_allreduce_sum(rspan{all}, window_ranks_);
    for (std::size_t i = 0; i < nb; ++i) {
      double slowest = 0.0;
      for (std::size_t w = 0; w < nw; ++w)
        slowest = std::max(slowest, all[w * nb + i]);
      h.precond_setup_seconds += slowest;
    }
  }

 private:
  /// Natural pixel index of every local pixel of tree rank r.
  std::vector<std::uint32_t> natural_indices(int r) const {
    const std::size_t q0 =
        pm_->leaf_begin(r) * static_cast<std::size_t>(tree_->pixels_per_leaf());
    const std::size_t n = pm_->local_pixels(r);
    return std::vector<std::uint32_t>(tree_->perm().begin() + q0,
                                      tree_->perm().begin() + q0 + n);
  }

  /// Window-wide sum. A whole-cluster window uses the cluster
  /// allreduce; a sub-window only group collectives over its own ranks,
  /// never the global barrier/allreduce (which would deadlock against
  /// the other band groups running their own windows concurrently).
  double window_sum(double v) {
    return static_cast<int>(window_ranks_.size()) == comm_->size()
               ? comm_->allreduce_sum(v)
               : comm_->group_allreduce_sum(v, window_ranks_);
  }

  /// Incident fields of the local illuminations as one block vector,
  /// gathered from the transceivers' owned panel.
  void load_incident(cspan blk) const {
    const ccspan panel = trx_->incident_panel();
    for (std::size_t c = 0; c < lo_.npanels; ++c) {
      for (std::size_t i = 0; i < lo_.nrhs; ++i) {
        const cplx* col =
            panel.data() + static_cast<std::size_t>(local_t_[i]) * npix_;
        cplx* out = blk.data() + lo_.at(c, i);
        for (std::size_t j = 0; j < lo_.panel; ++j)
          out[j] = col[nat_idx_[c * lo_.panel + j]];
      }
    }
  }

  /// (Re)load the incident fields of the local illuminations into the
  /// phi_b block.
  void reset_phi_to_incident() { load_incident(phi_b_); }

  /// Y = [I - G0 O] X on local block slices (collective over the tree
  /// group; one halo message per peer per level for all columns).
  void forward_op_block(ccspan x, cspan y) {
    cvec ox(lo_.size());
    block_diag_mul(lo_, o_loc_, x, ox);
    pm_->apply_block(*comm_, ox, y, lo_.nrhs, tree_base_);
    block_identity_minus(lo_, x, y);
  }

  /// Y = [I - G0 O]^H X.
  void adjoint_op_block(ccspan x, cspan y) {
    pm_->apply_herm_block(*comm_, x, y, lo_.nrhs, tree_base_);
    block_identity_minus_conj_diag(lo_, o_loc_, x, y);
  }

  /// Block solve of [I - G0 O] (or its adjoint) at the base tolerance,
  /// loosened to the Eisenstat-Walker forcing tolerance when one is
  /// set; counts the solve into the history totals.
  bool solve_block(ccspan rhs, cspan x, bool adjoint) {
    BicgstabOptions o = fw_opts_;
    if (forcing_tol_ > 0.0) o.tol = std::max(forcing_tol_, o.tol);
    const BlockBicgstabResult res = block_bicgstab(
        [this, adjoint](ccspan in, cspan out) {
          if (adjoint) {
            adjoint_op_block(in, out);
          } else {
            forward_op_block(in, out);
          }
        },
        rhs, x, lo_, o, reducer(),
        PrecondContext{precond_.get(), lo_, adjoint});
    solves_ += lo_.nrhs;
    applications_ += static_cast<std::uint64_t>(res.block_matvecs) * lo_.nrhs;
    iterations_ += res.total_iterations();
    return res.converged;
  }

  /// G_R projections of all block columns at once: cols[t] = G_R v_t,
  /// one panel projection over the local pixels (read in place from the
  /// shared G_R), replicated within the tree group after ONE batched
  /// allreduce.
  void gr_full_block(ccspan v_block, cspan cols) {
    gr_project(trx_->gr(), nat_idx_, lo_, v_block, cols);
    comm_->group_allreduce_sum(cols, tree_group_);
  }

  Comm* comm_;
  const PartitionedMlfma* pm_;
  const QuadTree* tree_;
  const Transceivers* trx_;
  const CMatrix* measured_;
  BicgstabOptions fw_opts_;
  bool near_precondition_;
  int window_base_;  // first global rank of the window
  int tree_ranks_;

  int wrank_ = 0;      // rank within the window
  int group_ = 0;      // illumination group index
  int tree_rank_ = 0;  // rank within the tree group
  int tree_base_ = 0;  // first global rank of this tree group
  std::vector<int> tree_group_;    // global ranks sharing this MLFMA
  std::vector<int> column_group_;  // same tree_rank across illum groups
  std::vector<int> window_ranks_;

  std::size_t npix_ = 0;                // global pixel count
  std::size_t nloc_ = 0;                // local pixel count
  std::vector<std::uint32_t> nat_idx_;  // natural pixel index per local q
  std::vector<int> local_t_;            // transmitters of this group
  BlockLayout lo_;                      // local block layout
  double meas_norm2_ = 0.0;
  cvec o_loc_;  // background contrast slice
  // Background fields of all local transmitters as ONE block vector in
  // the leaf-interleaved layout (panel = pixels_per_leaf, one column per
  // local illumination), so the residual pass is a single block solve.
  cvec phi_b_;
  // Iteration-reduction state: the Eisenstat-Walker tolerance of the
  // current iteration, the rank-local near-field block-Jacobi and the
  // Krylov recycling histories of the gradient and step-length solves.
  double forcing_tol_ = 0.0;
  std::unique_ptr<NearFieldBlockJacobi> precond_;
  KrylovRecycler rec_grad_{RecycleOptions{0, 1e-12}};
  KrylovRecycler rec_step_{RecycleOptions{0, 1e-12}};
  // Solve totals of this rank (DbimHistory counts) and the wall time of
  // each preconditioner build.
  std::uint64_t solves_ = 0, applications_ = 0, iterations_ = 0;
  std::vector<double> precond_setup_s_;
};

}  // namespace

std::unique_ptr<DbimPasses> make_partitioned_workspace(
    Comm& comm, int rank_base, int illum_groups, const PartitionedMlfma& pm,
    const QuadTree& tree, const Transceivers& trx, const CMatrix& measured,
    const DbimOptions& opts, const BicgstabOptions& fw_opts) {
  return std::make_unique<PartitionedWorkspace>(
      comm, rank_base, illum_groups, pm, tree, trx, measured, opts, fw_opts);
}

DbimResult dbim_reconstruct_parallel(VCluster& vc, const QuadTree& tree,
                                     const Transceivers& trx,
                                     const CMatrix& measured,
                                     const ParallelDbimConfig& config) {
  const int ig = config.illum_groups, tr = config.tree_ranks;
  FFW_CHECK(vc.size() == ig * tr);
  OperatorTableCache* cache = config.dbim.table_cache;
  const PartitionedMlfma pm =
      cache != nullptr
          ? PartitionedMlfma(cache->mlfma_tables(tree.grid(),
                                                 tree.leaf_pixel_side(),
                                                 config.mlfma),
                             tr)
          : PartitionedMlfma(tree, config.mlfma, tr);

  // The stepper's checkpoint hook fires on global rank 0 with the
  // natural-order state; the file is what a restart resumes from.
  DbimOptions opts = config.dbim;
  if (!config.checkpoint_path.empty()) {
    opts.checkpoint = [&config](const DbimCheckpoint& state) {
      FFW_CHECK_MSG(state.save(config.checkpoint_path),
                    "parallel DBIM: checkpoint save failed");
      if (config.dbim.checkpoint) config.dbim.checkpoint(state);
    };
  }
  // Crash-recovery state: set between (re)runs by the supervisor loop
  // below, read-only while rank threads are live.
  DbimCheckpoint saved;
  const auto load_saved = [&] {
    return !config.checkpoint_path.empty() &&
           saved.load(config.checkpoint_path);
  };
  if (config.resume_from_checkpoint && load_saved()) opts.resume = &saved;

  DbimResult out;
  const auto rank_program = [&](Comm& comm) {
    DbimStepper stepper(make_partitioned_workspace(comm, 0, ig, pm, tree, trx,
                                                   measured, opts,
                                                   config.forward),
                        opts, config.forward);
    while (stepper.step()) {
    }
    DbimResult res = stepper.result();
    // Every rank holds the full image; this process reports its lowest
    // hosted rank's copy.
    if (!vc.hosts_all() || comm.rank() == 0) out = std::move(res);
  };

  // Supervisor: a failed run (e.g. an injected RankFailure) is caught
  // here; the cluster is recovered and the ranks rerun from the last
  // atomically-saved checkpoint (or from where this call started when
  // the crash landed before the first save). Consumed crash triggers do
  // not re-fire (VCluster keeps the cumulative send counters across
  // recover()).
  for (int restarts = 0;; ++restarts) {
    try {
      vc.run(rank_program);
      return out;
    } catch (const CommFailure&) {
      // Process mode cannot restart locally — the failure means a peer
      // *process* is gone, and only the process-tree supervisor
      // (ffw_launch) can bring a whole consistent world back.
      if (!vc.hosts_all() || restarts >= config.max_restarts) throw;
      vc.recover();
      opts.resume = load_saved() ? &saved : config.dbim.resume;
    }
  }
}

}  // namespace ffw
