// Krylov subspace recycling across DBIM iterations (ISSUE 6 tentpole;
// DESIGN.md Sec. 13).
//
// DBIM re-solves nearly the same forward / adjoint systems every
// Gauss-Newton iteration: the operator changes only through the contrast
// update (a few percent per iteration after the first), and the
// right-hand sides (incident fields, residual back-projections) drift
// slowly. A full deflation-style recycled-Krylov method (GCRO-DR) would
// need to orthogonalise against the operator image of the retained
// space every iteration; here the operator apply is the dominant cost,
// so we use the cheapest variant that captures most of the win:
// *solution recycling*. We retain the last `depth` (rhs, solution)
// block pairs and, before each new solve, seed the initial guess with
// the least-squares combination of retained solutions whose rhs
// combination best matches the new rhs:
//
//   min_a || b_new - sum_i a_i b_i ||   =>   x0 = sum_i a_i x_i
//
// Since x_i ~= A_i^{-1} b_i and A changes slowly, x0 ~= A^{-1} b_new up
// to the operator drift — typically 1-2 digits of the solve for free,
// which BiCGStab then refines at the usual rate.
//
// Determinism: the Gram system is formed from per-column block dots,
// summed over the fixed chunks of the layout (BlockChunks) in chunk
// order and batched into a single reducer call, so serial and parallel
// runs (and reruns, at any thread count) see bit-identical
// coefficients. Recycle state is *not*
// checkpointed — drivers clear it whenever background fields reset, so a
// crash-recovered run re-derives identical iterates (see dbim/).
#pragma once

#include <vector>

#include "forward/bicgstab.hpp"
#include "linalg/block.hpp"

namespace ffw {

struct RecycleOptions {
  /// Retained (rhs, solution) snapshot pairs; 0 disables recycling.
  std::size_t depth = 2;
  /// Relative Tikhonov ridge on the Gram diagonal — keeps the tiny
  /// least-squares solve stable when retained rhs are nearly parallel
  /// (e.g. consecutive DBIM iterations of the same transmitter).
  double ridge = 1e-12;
};

class KrylovRecycler {
 public:
  explicit KrylovRecycler(const RecycleOptions& opts = {}) : opts_(opts) {}

  /// Writes the recycled initial guess for rhs block `b` into `x`
  /// (fully overwritten; zeroed when nothing can be seeded). Returns the
  /// number of columns seeded. Collective over `reduce`'s group: every
  /// rank must call with its local slice and the same snapshot history.
  std::size_t seed(ccspan b, cspan x, const BlockLayout& lo,
                   const DotReducer& reduce = {}) const;

  /// Retains (b, x) as a snapshot pair; once `depth` are held, the
  /// oldest pair's buffers take the new one. No-op when depth == 0.
  void store(ccspan b, ccspan x, const BlockLayout& lo);

  void clear() { snaps_.clear(); }
  std::size_t size() const { return snaps_.size(); }
  const RecycleOptions& options() const { return opts_; }

 private:
  struct Snapshot {
    cvec b, x;
  };
  RecycleOptions opts_;
  std::vector<Snapshot> snaps_;  // oldest first
};

}  // namespace ffw
