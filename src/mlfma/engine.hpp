// Serial / within-node MLFMA engine: O(N) application of the dense
// interaction matrix G0 (paper Sec. III-B, bottom of Fig. 4).
//
// apply() runs the four phases — aggregation (with the leaf multipole
// expansion), translation, disaggregation (with the leaf local
// expansion) and the near-field pass — over Morton-ordered per-level
// sample arrays. Leaf expansions are batched into single GEMMs across
// all clusters (Sec. IV-D), aggregation/disaggregation run each parent's
// four children through the band-tile interpolation/anterpolation
// kernels fused with the diagonal shifts, and translation is a diagonal
// multiply-accumulate per interaction-list entry. The kernels are the
// ones PartitionedMlfma runs (mlfma/farfield.hpp); this engine spreads
// clusters over threads. The near-field pass is
// NearFieldOperators::apply_box on the whole leaf grid (the leaf-row
// Fourier form of the nine-type sum), the routine PartitionedMlfma runs
// on each rank's rectangle.
//
// Phase wall-times are accumulated in `phase_times()`; they are the
// measured inputs for the Table III / Table IV reproduction and the
// scaling model.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/timer.hpp"
#include "greens/nearfield.hpp"
#include "grid/quadtree.hpp"
#include "mlfma/operators.hpp"
#include "mlfma/plan.hpp"
#include "mlfma/tables.hpp"

namespace ffw {

enum class MlfmaPhase {
  kExpansion = 0,      // leaf multipole expansion (dense GEMM)
  kAggregation,        // interpolate + shift up the tree
  kTranslation,        // diagonal far-field translations
  kDisaggregation,     // shift + anterpolate down the tree
  kLocalExpansion,     // leaf local expansion (dense GEMM)
  kNearField,          // near-field pass (row-Fourier form of the 9 types)
  kCount
};

const char* phase_name(MlfmaPhase p);

struct PhaseTimes {
  std::array<double, static_cast<std::size_t>(MlfmaPhase::kCount)> seconds{};
  std::uint64_t applications = 0;

  double total() const;
  void clear();
};

class MlfmaEngine {
 public:
  /// Convenience constructor: builds a private OperatorTables artifact
  /// for this engine (the classic one-engine-one-job path).
  MlfmaEngine(const QuadTree& tree, const MlfmaParams& params = {});

  /// Shares a prebuilt read-only table artifact (mlfma/tables.hpp) —
  /// typically handed out by OperatorTableCache. Construction then costs
  /// only the per-engine workspace (spectra panels, scratch), so many
  /// jobs over the same configuration amortise one table build. The
  /// tables are immutable; engines sharing them may run concurrently.
  explicit MlfmaEngine(std::shared_ptr<const OperatorTables> tables);

  /// y = G0 * x; x and y are pixel vectors in *cluster order*
  /// (QuadTree::to_cluster_order), y is overwritten. Equivalent to
  /// apply_block with nrhs = 1.
  void apply(ccspan x, cspan y);

  /// y = G0^H * x. G0 is complex-symmetric (reciprocity), so
  /// G0^H x = conj(G0 conj(x)); used by the adjoint solves.
  void apply_herm(ccspan x, cspan y);

  /// Multi-RHS apply: Y_r = G0 * X_r for all nrhs columns at once. X and
  /// Y are block vectors of size N * nrhs in the leaf-interleaved block
  /// layout (linalg/block.hpp with panel = pixels_per_leaf): every
  /// operator table — translation diagonals, interpolation stencils,
  /// shift vectors, near-field row-operators — is streamed from memory
  /// once per apply (the row-operators once per 8-column chunk) and
  /// reused across all columns, and the leaf expansions become
  /// (q0 x np) x (np x nleaf*nrhs) GEMMs.
  void apply_block(ccspan x, cspan y, std::size_t nrhs);

  /// Y_r = G0^H * X_r for all columns (conjugation symmetry).
  void apply_herm_block(ccspan x, cspan y, std::size_t nrhs);

  const QuadTree& tree() const { return *tree_; }
  const MlfmaPlan& plan() const { return plan_; }
  const MlfmaOperators& operators() const { return ops_; }
  const NearFieldOperators& nearfield() const { return near_; }
  /// The shared table artifact (for handing to further engines).
  const std::shared_ptr<const OperatorTables>& tables() const {
    return tables_;
  }

  const PhaseTimes& phase_times() const { return times_; }
  void clear_phase_times() { times_.clear(); }

  /// Arithmetic policy (from MlfmaParams::precision). Under kMixed the
  /// operator tables, spectra panels, near-field row-operators and
  /// forward row transforms are fp32 with fp64 accumulation at the leaf
  /// local-expansion / near-field product boundaries (the near field's
  /// inverse row transform is fp64); x/y stay fp64 at the API.
  Precision precision() const { return plan_.params().precision; }

  /// Releases the per-level spectra panels (grown to the largest nrhs
  /// seen) and re-reserves them for nrhs = 1. The conjugated and narrowed
  /// input blocks and the shifted parent panels of the disaggregation
  /// come from the calling thread's block scratch (linalg/scratch.hpp).
  /// Call between solve stages with very different block widths to return
  /// the O(N * nrhs) workspace to the allocator.
  void shrink_workspace();

  /// Precomputed-table + workspace storage (the O(N) memory census).
  /// Engines sharing one OperatorTables each report the full table
  /// footprint; dedupe via tables() when summing across a job pool.
  std::size_t bytes() const;

 private:
  void ensure_block_capacity(std::size_t nrhs);

  // Pass bodies are templated over the panel scalar T: T = double is the
  // reference path, T = float the mixed path (fp32 tables + panels, fp64
  // y accumulation in downward/near passes).
  template <typename T>
  void upward_pass_t(const std::complex<T>* x, std::size_t nrhs);
  template <typename T>
  void translation_pass_t(std::size_t nrhs);
  template <typename T>
  void downward_pass_t(cspan y, std::size_t nrhs);
  template <typename T>
  void near_pass_t(const std::complex<T>* x, cspan y, std::size_t nrhs);

  // Scalar-selected views of the width-specific buffers.
  template <typename T>
  std::vector<std::vector<std::complex<T>>>& s_panels();
  template <typename T>
  std::vector<std::vector<std::complex<T>>>& g_panels();

  // Immutable shared state (tables_) with reference aliases so the pass
  // bodies keep their member-style access; per-engine mutable workspace
  // below.
  std::shared_ptr<const OperatorTables> tables_;
  const QuadTree* tree_;
  const MlfmaPlan& plan_;
  const MlfmaOperators& ops_;
  const NearFieldOperators& near_;

  // Per-level outgoing (s_) and incoming (g_) sample panels. For a block
  // apply with nrhs columns, cluster c's panel is the Q_l x nrhs
  // column-major block at offset c * Q_l * nrhs (Morton cluster order);
  // nrhs == 1 recovers the plain Q_l x num_clusters(l) panel. Buffers are
  // grown to the largest nrhs seen (block_capacity_) and reused. Only the
  // set matching precision() is ever allocated.
  std::vector<cvec> s_, g_;
  std::vector<cvec32> s32_, g32_;
  std::size_t block_capacity_ = 1;

  PhaseTimes times_;
};

template <>
inline std::vector<cvec>& MlfmaEngine::s_panels<double>() { return s_; }
template <>
inline std::vector<cvec32>& MlfmaEngine::s_panels<float>() { return s32_; }
template <>
inline std::vector<cvec>& MlfmaEngine::g_panels<double>() { return g_; }
template <>
inline std::vector<cvec32>& MlfmaEngine::g_panels<float>() { return g32_; }

}  // namespace ffw
