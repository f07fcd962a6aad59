// Complex vector kernels used by the Krylov solvers and the DBIM
// optimiser. Kept free-standing so hot loops stay simple for the
// vectoriser.
//
// Each kernel exists for both scalar widths (one shared template body in
// kernels.cpp): the fp64 overloads serve the solvers, the fp32 overloads
// the mixed MLFMA pipeline's panel manipulation. Reductions (cdot, nrm2)
// accumulate in double regardless of the storage scalar — the mixed
// path's policy is "narrow storage, wide arithmetic at reductions".
#pragma once

#include "common/types.hpp"

namespace ffw {

/// <x, y> = sum conj(x_i) * y_i  (inner product, conjugate-linear in x).
cplx cdot(ccspan x, ccspan y);
cplx cdot(ccspan32 x, ccspan32 y);

/// 2-norm.
double nrm2(ccspan x);
double nrm2(ccspan32 x);

/// y += a * x.
void axpy(cplx a, ccspan x, cspan y);
void axpy(cplx32 a, ccspan32 x, cspan32 y);

/// y = x + a * y  (BiCGStab's xpay update).
void xpay(ccspan x, cplx a, cspan y);

/// x *= a.
void scal(cplx a, cspan x);
void scal(cplx32 a, cspan32 x);

/// y = x.
void copy(ccspan x, cspan y);
void copy(ccspan32 x, cspan32 y);

/// out = a - b.
void sub(ccspan a, ccspan b, cspan out);

/// Pointwise y_i = d_i * x_i (diagonal operator).
void diag_mul(ccspan d, ccspan x, cspan y);

/// Precision conversion y_i = (cplx32) x_i: the mixed engine's
/// once-per-apply entry cost.
void narrow(ccspan x, cspan32 y);

/// max_i |x_i - y_i| / max_i |y_i| — relative max-norm difference.
double rel_max_diff(ccspan x, ccspan y);

/// ||x - y||_2 / ||y||_2.
double rel_l2_diff(ccspan x, ccspan y);

}  // namespace ffw
