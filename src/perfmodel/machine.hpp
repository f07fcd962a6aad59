// Machine model for the scaling predictions (DESIGN.md Sec. 2).
//
// The paper's numbers come from Blue Waters XE6 (CPU) and XK7 (GPU)
// nodes on a Cray Gemini network. None of that hardware exists in this
// container, so predictions are produced by an explicit cost model:
//
//  * a CPU node's MLFMA throughput is anchored to the paper's Table IV
//    (`cpu_node_cmacs_per_s`); how an application's time splits across
//    the operator classes is *measured* on this host
//    (perfmodel/predictor.hpp calibrates against real MlfmaEngine runs),
//    so no prediction depends on how fast this host's cores are;
//  * the GPU is modelled per operator class with a roofline argument:
//    dense matrix-matrix operators (multipole/local expansion,
//    near-field) are compute-bound and get the flops-ratio speedup,
//    diagonal operators (translation, shifts) are bandwidth-bound and
//    get the memory-bandwidth ratio, band-diagonal interpolation sits
//    in between. Defaults are set from K20x-vs-16-core-Opteron
//    datasheet ratios; they are *documented parameters*, not
//    measurements.
//  * the network is an alpha-beta (latency + volume/bandwidth) model
//    with Gemini-like constants; communication volume comes from the
//    same interaction-list census the real partitioned engine uses
//    (verified byte-exact in tests/partitioned_test.cpp).
#pragma once

#include <array>

#include "mlfma/engine.hpp"

namespace ffw {

/// One measured point-to-point link: what the transport self-benchmark
/// (perfmodel/linkbench.hpp — a ping-pong over the shm-ring or TCP
/// backend) reports. Feeds MachineParams::apply_measured_link so the
/// alpha-beta network model can run on measured numbers instead of the
/// documented Gemini-like constants.
struct LinkParams {
  double latency_s = 0.0;       ///< one-way small-message latency
  double bandwidth_bps = 0.0;   ///< large-message throughput, bytes/s
};

struct MachineParams {
  /// Throughput of one XE6 CPU node on a whole MLFMA application
  /// (cmacs/s over all phases). From the paper's Table IV: 64 nodes
  /// reconstruct 1M unknowns with 1,024 illuminations in 50 DBIM
  /// iterations in 8,216 s. Per node that is 16 illuminations x 3
  /// solves x 13.4 applications x 50 iterations, plus 15% non-MLFMA
  /// time, so ~0.22 s per 8.4e8-cmac application.
  double cpu_node_cmacs_per_s = 3.8e9;

  /// Modelled GPU-node speedup over the full CPU node, per MLFMA phase
  /// (order: expansion, aggregation, translation, disaggregation,
  /// local expansion, near field). Roofline-derived: K20x/XE6 peak
  /// flops ratio ~7x bounds dense ops (achieved ~5-6x), DRAM bandwidth
  /// ratio ~3.4x bounds the diagonal ops (~2.8-3x).
  std::array<double, static_cast<std::size_t>(MlfmaPhase::kCount)>
      gpu_phase_speedup{5.0, 5.9, 2.9, 2.8, 5.5, 3.9};

  /// Per-kernel-launch overhead on the GPU; smaller per-node work means
  /// more launches per useful flop, which is the paper's explanation
  /// for the lower sub-tree-scaling efficiency (Sec. V-C2).
  double gpu_kernel_overhead_s = 2.0e-5;
  /// GPU underfill knee: per-node work (cmacs per MLFMA application) at
  /// which kernel throughput halves. Splitting a 1M-unknown tree over 16
  /// nodes leaves ~1e8 cmacs per node per application — small enough
  /// that a K20x's 14 SMX are underfed ("degradation in GPU efficiency
  /// due to smaller chunks of work per kernel", Sec. V-C2). At 16M
  /// unknowns (Table III) the chunks stay large and the effect vanishes,
  /// which is exactly the paper's pattern.
  double gpu_underfill_cmacs = 4.0e7;
  /// Number of kernel launches per MLFMA application (one per phase per
  /// level, roughly).
  double kernels_per_apply(int levels) const { return 6.0 * levels; }

  /// Gemini-like interconnect. Documented constants by default;
  /// apply_measured_link() swaps in numbers from the transport
  /// self-benchmark when one has been run on this host.
  double net_latency_s = 1.5e-6;
  double net_bandwidth_bps = 6.0e9;  // bytes/s per node

  /// Replaces the documented network constants with a measured link
  /// (see perfmodel/linkbench.hpp and bench/bench_transport.cpp).
  /// Nonpositive fields leave the corresponding default untouched, so a
  /// partial or failed measurement degrades to the documented model.
  void apply_measured_link(const LinkParams& link) {
    if (link.latency_s > 0.0) net_latency_s = link.latency_s;
    if (link.bandwidth_bps > 0.0) net_bandwidth_bps = link.bandwidth_bps;
  }

  /// Fraction of non-MLFMA time in a DBIM iteration (G_R products,
  /// vector updates); measured from real runs by the calibration step.
  double non_mlfma_fraction = 0.15;
};

}  // namespace ffw
