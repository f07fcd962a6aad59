// The far-field kernels of one MLFMA apply (paper Table I): the leaf
// multipole and local expansions and the per-parent aggregation and
// disaggregation. With diag_sum_t (linalg/gemm.hpp) for the
// translations, the serial MlfmaEngine and the distributed
// PartitionedMlfma both call exactly these; an engine only decides which
// clusters run on which thread or rank.
//
// Panels are column-major blocks of nrhs columns, one per cluster, in
// Morton order: a parent's four children are consecutive child panels.
// Every kernel is templated over the panel scalar T: T = double is the
// reference path, T = float the mixed path (fp32 tables and panels,
// with the fp64 accumulation boundaries of DESIGN.md Sec. 10).
#pragma once

#include "mlfma/operators.hpp"

namespace ffw {

/// S0(q0 x cols) = E X(np x cols): the leaf multipole expansion of
/// `cols` leaf columns (leaves x nrhs). For T = float the np-term sums
/// run in short fp32 chains promoted into fp64 and round once into the
/// fp32 panel (gemm_expand_mixed).
template <typename T>
void leaf_expand(const MlfmaOperators& ops, std::size_t np, std::size_t q0,
                 std::size_t cols, const std::complex<T>* x,
                 std::complex<T>* s0);

/// Y(np x cols) += R G0(q0 x cols): the leaf local expansion into the
/// fp64 output block (for T = float fp32 MACs, fp64 sum across k blocks).
template <typename T>
void leaf_local_expand(const MlfmaOperators& ops, std::size_t np,
                       std::size_t q0, std::size_t cols,
                       const std::complex<T>* g0, cplx* y);

/// parent = sum_j diag(up_j) W child_j over the four children of one
/// parent (interpolation fused with the child -> parent shift: one band
/// tile pass per child panel). `level` is the child level's operators.
template <typename T>
void aggregate_parent(const LevelOperators& level, std::size_t nrhs,
                      const std::complex<T>* children,
                      std::complex<T>* parent);

/// child_j += (Q_l / Q_parent) W^T diag(down_j) parent for the four
/// children of one parent: the shift into `shifted` (a Q_parent x nrhs
/// scratch panel), then one gather-add band tile pass into the child.
template <typename T>
void disaggregate_parent(const LevelOperators& level, std::size_t nrhs,
                         const std::complex<T>* parent,
                         std::complex<T>* children, std::complex<T>* shifted);

}  // namespace ffw
