// Two-dimensional distributed DBIM driver — the paper's headline
// parallelisation (Fig. 6): ranks form an illum_groups x tree_ranks
// grid. Each *illumination group* owns a subset of transmitters (round
// robin); within a group the image and MLFMA tree are partitioned over
// `tree_ranks` ranks (PartitionedMlfma). Synchronisation across
// illumination groups happens exactly twice per DBIM iteration — the
// gradient combine and the step-length combine — matching Fig. 4.
//
// The outer loop and the passes are the serial ones: every rank runs a
// DbimStepper over a DbimWorkspace holding the rank's share
// (make_partitioned_workspace) — its leaf-blocked pixel slice and its
// group's transmitters, solved on a rank-local PartitionedForwardSolver.
// The same passes then reduce cost, gradient and step denominator over
// the window, and the workspace's DotReducer reduces the stepper's NLCG
// scalars over the tree group.
//
// This runs on the virtual cluster (threads as ranks, see DESIGN.md
// Sec. 2): the algorithm, message pattern and traffic volumes are those
// of the MPI implementation; only wall-clock speedup cannot manifest on
// a single machine (the performance model covers that).
#pragma once

#include <memory>

#include "dbim/dbim.hpp"
#include "mlfma/partitioned.hpp"

namespace ffw {

struct ParallelDbimConfig {
  int illum_groups = 1;  // parallelisation dimension 1 (illuminations)
  int tree_ranks = 1;    // parallelisation dimension 2 (MLFMA sub-trees)
  /// Outer-loop options, honoured as in the serial driver (progress
  /// fires on global rank 0; checkpoint / resume use the natural-order
  /// DbimCheckpoint format), with these partitioned-path rules:
  /// backend must be kMlfma, and precision kDouble on fp64 `mlfma`
  /// tables (each refused loudly);
  /// table_cache, when set, shares the cached MLFMA tables for
  /// (tree.grid(), tree.leaf_pixel_side(), mlfma) instead of building a
  /// private set.
  DbimOptions dbim;
  BicgstabOptions forward;
  MlfmaParams mlfma;

  /// When non-empty, global rank 0 saves the outer-loop state (the
  /// stepper's DbimOptions::checkpoint state) here, atomically, after
  /// every completed iteration. Required for crash recovery.
  std::string checkpoint_path;
  /// Supervisor restarts: when a rank fails mid-run (e.g. an injected
  /// RankFailure, see vcluster/fault.hpp), the driver calls
  /// VCluster::recover(), reloads the last checkpoint and reruns the
  /// cluster from that iteration — at most this many times, after which
  /// (or when 0) the CommFailure propagates to the caller. In process
  /// mode (a VCluster hosting one rank) the in-driver supervisor is
  /// disabled — failures propagate so the process can exit and the
  /// process-tree supervisor (ffw_launch) relaunches the whole world.
  int max_restarts = 0;
  /// Resume from `checkpoint_path` at entry if it loads (process-mode
  /// relaunch path: ffw_launch restarted the world after a rank died,
  /// so every worker rejoins at the last completed iteration instead of
  /// iteration 0). Ignored when the file does not exist yet.
  bool resume_from_checkpoint = false;
};

/// Collective reconstruction over `vc` (vc.size() must equal
/// illum_groups * tree_ranks): the crash supervisor around "partitioned
/// workspace on every rank + DbimStepper". Returns the same result as
/// the serial dbim_reconstruct (validated in
/// tests/parallel_dbim_test.cpp), with the full natural-order image on
/// every process. With checkpoint_path + max_restarts set, the run
/// survives rank crashes: each restart resumes from the last
/// atomically-saved iteration (or from where it started when none
/// completed yet).
DbimResult dbim_reconstruct_parallel(VCluster& vc, const QuadTree& tree,
                                     const Transceivers& trx,
                                     const CMatrix& measured,
                                     const ParallelDbimConfig& config);

/// The DbimWorkspace of the calling rank of an illum_groups x pm.nranks()
/// grid that occupies the *window* of ranks [rank_base, rank_base +
/// illum_groups * pm.nranks()) of `comm` — the whole cluster, or one
/// band group of a continuation ladder (dbim/continuation_parallel.hpp)
/// while the rest of the cluster runs other bands. A sub-window reduces
/// with group collectives over its own ranks only, so disjoint windows
/// cannot interfere (or deadlock). Every window rank must build one
/// with the same arguments and drive it with a DbimStepper. `pm`,
/// `tree`, `trx` and `measured` are borrowed. MLFMA only: refuses
/// (FFW_CHECK) a CBS/kAuto backend, DbimOptions::precision = kMixed or
/// fp32 tables in `pm` (one check), and more illumination groups than
/// transmitters; honours near_precondition. Receiver
/// projections read trx's G_R and incident panel in place, at the
/// rank's pixels.
std::unique_ptr<DbimWorkspace> make_partitioned_workspace(
    Comm& comm, int rank_base, int illum_groups, const PartitionedMlfma& pm,
    const QuadTree& tree, const Transceivers& trx, const CMatrix& measured,
    const DbimOptions& opts, const BicgstabOptions& fw_opts);

}  // namespace ffw
