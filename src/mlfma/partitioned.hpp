// Distributed-memory MLFMA: the paper's second parallelisation dimension
// (Sec. IV-A/IV-B), executed over the virtual cluster.
//
// The 16 sub-trees rooted at the top computed level (4x4 clusters) are
// distributed over P <= 16 ranks in Morton order; because a cluster and
// all of its descendants share a Morton prefix, every rank owns a
// contiguous range of clusters at *every* level, and:
//
//   * the leaf multipole/local expansions, aggregation and
//     disaggregation are entirely local (no communication);
//   * the translation phase at each level needs the outgoing spectra of
//     remote interaction-list sources — exchanged once per level with
//     one aggregated buffer per peer (Sec. IV-B: "small communication
//     buffers are aggregated into larger ones");
//   * the near-field phase needs ghost leaf values of boundary
//     neighbours — likewise one buffer per peer. A rank's leaves are
//     16/p whole top-level sub-trees, a rectangle of the leaf grid, so
//     its own-source near field is one NearFieldOperators::apply_box
//     (the serial engine's routine); the ghost terms stay per-leaf
//     direct sums over the nine types, one peer at a time.
//
// Communication/computation overlap (paper Fig. 8) is realised by a
// dependency-split schedule computed once at construction
// (mlfma/schedule.hpp): each rank posts its near-field halo *before*
// the upward pass and each level's spectra right after that level is
// aggregated; it then runs everything that depends only on owned data —
// the interior near field and every local translation — while halo
// messages are in flight, and drains peer messages in *arrival* order
// (Comm::wait_any), running each peer's remote work as soon as its
// message and every earlier-listed message of the same phase have
// landed — every output then sums its terms in schedule order, so the
// result does not depend on message timing. The blocking-ordered
// schedule (fixed peer-and-level drain order, no local work while
// waiting) is kept as the ablation baseline for the Fig. 8
// reproduction (bench_overlap).
//
// All per-apply spectra panels are compact: owned clusters plus the
// ghost clusters this rank actually consumes, O(local share) instead of
// O(global tree) memory (asserted in tests/overlap_test.cpp).
//
// Rank-local vectors are the rank's contiguous leaf slice in cluster
// order (64 pixels per leaf). Equality with the serial engine is
// asserted bit-for-bit-modulo-rounding in tests/partitioned_test.cpp;
// equality under randomized message delays (out-of-order arrival) in
// tests/overlap_test.cpp.
#pragma once

#include <memory>

#include "greens/nearfield.hpp"
#include "mlfma/operators.hpp"
#include "mlfma/plan.hpp"
#include "mlfma/schedule.hpp"
#include "mlfma/tables.hpp"
#include "vcluster/comm.hpp"

namespace ffw {

/// Drain strategy of the distributed apply (Fig. 8 ablation axis).
enum class ApplySchedule {
  /// Local-first with arrival-order halo receipt (the default).
  kOverlapped,
  /// Fixed peer-and-level receive order, no local work while waiting —
  /// the pre-overlap baseline, kept for the Fig. 8 ablation bench.
  kBlockingOrdered,
};

class PartitionedMlfma {
 public:
  /// `nranks` must divide the top-level cluster count (1, 2, 4, 8 or 16
  /// for trees reaching the 4x4 top level). Builds a private
  /// OperatorTables artifact for this instance.
  PartitionedMlfma(const QuadTree& tree, const MlfmaParams& params,
                   int nranks);

  /// Shares a prebuilt read-only table artifact (mlfma/tables.hpp) —
  /// only the per-rank dependency-split schedule is built per instance,
  /// so repeated parallel reconstructions over the same configuration
  /// amortise the table cost through OperatorTableCache.
  PartitionedMlfma(std::shared_ptr<const OperatorTables> tables, int nranks);

  int nranks() const { return nranks_; }
  const QuadTree& tree() const { return *tree_; }
  const MlfmaPlan& plan() const { return plan_; }

  /// Leaf-cluster ownership range of `rank`.
  std::size_t leaf_begin(int rank) const;
  std::size_t leaf_end(int rank) const;
  /// Pixel count of the rank's slice.
  std::size_t local_pixels(int rank) const {
    return (leaf_end(rank) - leaf_begin(rank)) *
           static_cast<std::size_t>(tree_->pixels_per_leaf());
  }

  /// y_local = (G0 x)|_rank, given x_local = x|_rank. Collective: every
  /// rank in [rank_base, rank_base + nranks) must call this inside the
  /// same VCluster::run; the tree rank is comm.rank() - rank_base. The
  /// 2-D DBIM driver uses rank_base = group * tree_ranks so several
  /// illumination groups run independent distributed MLFMAs in the same
  /// cluster (paper Fig. 6).
  void apply(Comm& comm, ccspan x_local, cspan y_local,
             int rank_base = 0) const;

  /// y_local = (G0^H x)|_rank (via conjugation symmetry, still
  /// collective).
  void apply_herm(Comm& comm, ccspan x_local, cspan y_local,
                  int rank_base = 0) const;

  /// Multi-RHS apply on the rank-local block slice (leaf-interleaved
  /// layout of linalg/block.hpp restricted to the rank's leaves, panel =
  /// pixels_per_leaf). One message per peer per level carries all nrhs
  /// spectra — the same byte volume as nrhs single applies in 1/nrhs the
  /// messages (fewer, fatter vcluster messages). `sched` picks the halo
  /// drain strategy; both produce identical results (same arithmetic,
  /// accumulation reordered within rounding) with identical traffic.
  void apply_block(Comm& comm, ccspan x_local, cspan y_local,
                   std::size_t nrhs, int rank_base = 0,
                   ApplySchedule sched = ApplySchedule::kOverlapped) const;

  /// Blocked Hermitian apply (conjugation symmetry, collective).
  void apply_herm_block(Comm& comm, ccspan x_local, cspan y_local,
                        std::size_t nrhs, int rank_base = 0,
                        ApplySchedule sched = ApplySchedule::kOverlapped) const;

  /// Per-apply spectra-panel footprint of `rank` in complex elements per
  /// right-hand side: sum over levels of Q_l * (owned + ghost) for the
  /// outgoing panel plus Q_l * owned for the incoming panel, plus the
  /// near-field ghost leaf panel. Multiply by nrhs * sizeof(cplx) for
  /// bytes. The pre-compaction implementation held 2 * Q_l * N_l global
  /// elements instead (`global_panel_elements`).
  std::size_t panel_elements(int rank) const;
  std::size_t global_panel_elements() const;

  /// The plan-time dependency split (exposed for tests/benches).
  const RankSchedule& schedule(int rank) const {
    return schedule_[static_cast<std::size_t>(rank)];
  }

  /// Shared near-field operator tables — the per-leaf self block
  /// (type 4) feeds the rank-local block-Jacobi preconditioner of the
  /// parallel DBIM driver (forward/precond.hpp).
  const NearFieldOperators& nearfield() const { return near_; }

 private:
  std::size_t cluster_begin(int level, int rank) const;
  std::size_t cluster_end(int level, int rank) const;
  int owner_of(int level, std::size_t cluster) const;

  // Scalar-templated apply body: T = double is the reference path, T =
  // float the Precision::kMixed path. Under T = float every spectra
  // panel, ghost buffer and *wire message* (near-field halo + per-level
  // spectra, same tags) is cplx32 — the typed vcluster send/recv makes
  // the per-edge halo bytes exactly half the fp64 run's — while y_local
  // still accumulates in fp64 at the local-expansion/near-field GEMMs.
  template <typename T>
  void apply_block_impl(Comm& comm, const std::complex<T>* x_local,
                        cspan y_local, std::size_t nrhs, int rank_base,
                        ApplySchedule sched) const;

  // Immutable shared tables with reference aliases (cf. MlfmaEngine).
  std::shared_ptr<const OperatorTables> tables_;
  const QuadTree* tree_;
  const MlfmaPlan& plan_;
  const MlfmaOperators& ops_;
  const NearFieldOperators& near_;
  int nranks_;

  // schedule_[rank]: per-level + near-field dependency split.
  std::vector<RankSchedule> schedule_;
};

}  // namespace ffw
