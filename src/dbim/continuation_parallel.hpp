// Band-parallel frequency continuation: the ladder of
// dbim/continuation.hpp run over a VCluster partitioned into band
// groups (parallel/freq_partition.hpp) — frequency as the third
// parallel axis next to the paper's illuminations x sub-trees.
//
// Execution model: bands are assigned to groups round-robin. Within a
// group, each band is a LadderStepper (dbim/continuation.hpp) over that
// band alone, seeded with the previous band's raw contrast; its
// DbimStepper runs over the group's illum_groups x tree_ranks window
// (make_partitioned_workspace), or over the serial driver's workspace
// for a 1-rank group. The parts of a band that do NOT depend on earlier
// bands — operator tables, transceivers, measurement synthesis
// (independent experiments per frequency, cf. Gaggioli-Bruno
// arXiv:2202.09421) — start immediately and overlap other groups'
// reconstructions; only the DBIM waits for the previous band's raw
// contrast, which travels leader-to-leader as a point-to-point message.
// All traffic is group collectives and point-to-point sends in a
// reserved tag namespace; the cluster-global barrier/allreduce are never
// used, so concurrent windows cannot interfere.
//
// Determinism: the band scenario, the stepper and the stage report are
// the serial driver's, so the ladders agree to reduction-order rounding
// (tests/multifrequency_test.cpp asserts image RMSE <= 1e-10 and equal
// stage reports at p in {2, 4}).
#pragma once

#include "dbim/continuation.hpp"
#include "parallel/freq_partition.hpp"
#include "vcluster/comm.hpp"

namespace ffw {

/// Reserved tag namespace of the frequency dimension: warm-start
/// hand-offs use kTagFreqWarm - band, stage reports kTagFreqReport -
/// band, the final image kTagFreqFinal. (Collectives use -1000..,
/// groups -2000.., checkpoints -4000.., barriers -5000.., linkbench
/// -7000.)
inline constexpr int kTagFreqWarm = -8000;
inline constexpr int kTagFreqReport = -8100;
inline constexpr int kTagFreqFinal = -8200;

struct BandParallelOptions {
  /// Ladder-level options (per-stage seeds, checkpoint/resume).
  /// Single-rank band groups run the serial workspace and honour
  /// continuation.dbim.precision; multi-rank groups refuse kMixed
  /// (make_partitioned_workspace).
  ContinuationOptions continuation;
  /// Band groups: 0 = auto (largest divisor of the pool <= band count).
  int freq_groups = 0;
  /// Sub-tree ranks per band group.
  int tree_ranks = 1;
};

/// Collective over the whole cluster; vc.size() must match the implied
/// partition. Global rank 0 returns the assembled result (stage reports
/// in band order + the final-grid image); other process-mode workers
/// return an empty result, like dbim_reconstruct_parallel.
ContinuationResult continuation_reconstruct_parallel(
    VCluster& vc, const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, const BandParallelOptions& options = {});

}  // namespace ffw
