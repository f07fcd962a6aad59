// Gauss-Newton DBIM variant — the "Newton-type optimisation" the paper
// compares against in Sec. VI-B ("We prefer nonlinear conjugate-gradient
// iterations because they take fewer total matrix-vector multiplications
// than Newton-type optimization"). Implemented so that claim can be
// measured rather than quoted: each outer iteration solves the
// linearised least-squares problem
//
//     min_d  sum_t || F_t d + b_t ||^2  (+ lambda ||d||^2)
//
// with CGNR (conjugate gradients on the normal equations), where every
// CGNR iteration costs one F and one F^H application *per illumination*
// — i.e. two inner forward solves per illumination, versus the NLCG
// driver's fixed three per outer iteration. The Gauss-Newton direction
// is better, but far more expensive per step. It runs on the same
// blocked passes as NLCG (DbimWorkspace): every F / F^H application
// covers all illuminations in one block solve.
#pragma once

#include "dbim/dbim.hpp"

namespace ffw {

struct GaussNewtonOptions {
  int max_iterations = 10;       // outer (linearisation) iterations
  int cg_iterations = 4;         // CGNR iterations per outer step
  double residual_tol = 0.0;
  double tikhonov = 0.0;         // Levenberg-style damping
  std::function<void(int, double)> progress;
};

/// Same inputs/outputs as dbim_reconstruct; history counts every forward
/// solve so the matvec economics can be compared head to head.
DbimResult gauss_newton_reconstruct(MlfmaEngine& engine,
                                    const Transceivers& trx,
                                    const CMatrix& measured,
                                    const GaussNewtonOptions& opts = {},
                                    const BicgstabOptions& fw_opts = {});

}  // namespace ffw
