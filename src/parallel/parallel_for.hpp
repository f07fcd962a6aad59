// Within-node parallel loop, mirroring the paper's OpenMP layer
// (Sec. IV-C: clusters in parallel at low levels, samples in parallel at
// high levels). Compiles to a plain loop when OpenMP is absent so serial
// and parallel builds are numerically identical.
#pragma once

#include <cstddef>

#ifdef FFW_HAVE_OPENMP
#include <omp.h>
#endif

namespace ffw {

/// Number of worker threads the parallel_for will use.
int hardware_threads();

/// Set/get the library-wide thread cap (0 = use all hardware threads).
/// set_num_threads returns the previous cap (0 if none was set), so a
/// caller can restore it exactly.
int set_num_threads(int n);
int num_threads();

/// Rank of the calling thread inside a parallel_for body, in
/// [0, num_threads()); 0 outside parallel regions. Used to index
/// per-thread scratch workspaces.
inline int thread_rank() {
#ifdef FFW_HAVE_OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& body) {
#ifdef FFW_HAVE_OPENMP
  const long long b = static_cast<long long>(begin);
  const long long e = static_cast<long long>(end);
#pragma omp parallel for schedule(static) num_threads(num_threads())
  for (long long i = b; i < e; ++i) body(static_cast<std::size_t>(i));
#else
  for (std::size_t i = begin; i < end; ++i) body(i);
#endif
}

/// Dynamic-schedule variant for irregular work (e.g. per-cluster
/// interaction lists with differing lengths near domain edges).
template <typename F>
void parallel_for_dynamic(std::size_t begin, std::size_t end, F&& body) {
#ifdef FFW_HAVE_OPENMP
  const long long b = static_cast<long long>(begin);
  const long long e = static_cast<long long>(end);
#pragma omp parallel for schedule(dynamic, 1) num_threads(num_threads())
  for (long long i = b; i < e; ++i) body(static_cast<std::size_t>(i));
#else
  for (std::size_t i = begin; i < end; ++i) body(i);
#endif
}

}  // namespace ffw
