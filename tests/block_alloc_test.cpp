// The steady state of a DBIM reconstruction allocates no block
// temporaries: once the first steps have sized the per-thread scratch
// (linalg/scratch.hpp), the recycling snapshots and the engines' panels,
// every later step draws its O(N * nrhs) vectors from storage it already
// holds. This binary replaces the global allocation functions and counts,
// per thread, every allocation of at least half a block vector of the
// share being stepped; and, on every thread at once, all allocations of
// any size while a near-field preconditioner rebuilds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dbim/dbim.hpp"
#include "dbim/parallel_driver.hpp"
#include "forward/precond.hpp"
#include "linalg/scratch.hpp"
#include "mlfma/engine.hpp"
#include "phantom/setup.hpp"

namespace {

// Per-thread counting state: plain thread_locals, so reading them never
// allocates. A threshold of 0 disables counting on the thread.
thread_local std::size_t t_threshold = 0;
thread_local std::size_t t_large = 0;
thread_local std::size_t t_largest = 0;
// Every allocation on any thread, counted while g_count_all is set.
std::atomic<bool> g_count_all{false};
std::atomic<std::size_t> g_all{0};

void note(std::size_t bytes) {
  if (g_count_all.load(std::memory_order_relaxed))
    g_all.fetch_add(1, std::memory_order_relaxed);
  if (t_threshold == 0 || bytes < t_threshold) return;
  ++t_large;
  if (bytes > t_largest) t_largest = bytes;
}

void* counted(std::size_t bytes, std::size_t align) {
  note(bytes);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes == 0 ? 1 : bytes);
  } else if (posix_memalign(&p, align, bytes == 0 ? align : bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ffw {
namespace {

/// Large allocations the calling thread makes in `body`, counting those
/// of at least half a block vector of `pixels` x `nrhs`.
template <typename F>
std::size_t large_allocations(std::size_t pixels, std::size_t nrhs, F&& body) {
  t_threshold = pixels * nrhs * sizeof(cplx) / 2;
  t_large = t_largest = 0;
  body();
  t_threshold = 0;
  if (t_large != 0) {
    std::fprintf(stderr, "%zu allocations >= %zu bytes, largest %zu\n",
                 t_large, pixels * nrhs * sizeof(cplx) / 2, t_largest);
  }
  return t_large;
}

struct AllocScene {
  ScenarioConfig cfg;
  std::unique_ptr<Scenario> scene;

  AllocScene() {
    cfg.nx = 64;
    cfg.num_transmitters = 8;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    scene = std::make_unique<Scenario>(
        cfg, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.8, cplx{0.02, 0.0}));
  }

  /// The benchmark's solver options: near-field preconditioner on MLFMA,
  /// adaptive forcing, recycle depth 2.
  static DbimOptions options(BackendKind backend) {
    DbimOptions o;
    o.max_iterations = 5;
    o.backend = backend;
    o.near_precondition = backend == BackendKind::kMlfma;
    o.adaptive_forcing = true;
    o.recycle_depth = 2;
    return o;
  }
};

/// Steps 0 and 1 size the buffers (the recyclers fill to depth 2 on
/// step 1); steps 2-4 must allocate no block temporaries, and the
/// thread's block scratch must not grow.
std::size_t steady_state_allocations(DbimStepper& stepper, std::size_t pixels,
                                     std::size_t nrhs) {
  EXPECT_TRUE(stepper.step());
  EXPECT_TRUE(stepper.step());
  EXPECT_EQ(stepper.iteration(), 2);
  const std::size_t held = scratch_bytes();
  EXPECT_GT(held, 0u);
  const std::size_t large = large_allocations(pixels, nrhs, [&] {
    for (int i = 0; i < 3; ++i) stepper.step();
  });
  EXPECT_EQ(scratch_bytes(), held);
  return large;
}

std::size_t serial_allocations(BackendKind backend) {
  AllocScene s;
  DbimStepper stepper(s.scene->engine(), s.scene->transceivers(),
                      s.scene->measurements(), AllocScene::options(backend),
                      s.cfg.forward);
  const std::size_t n = s.scene->grid().num_pixels();
  return steady_state_allocations(stepper, n, 8);
}

TEST(BlockAlloc, MlfmaStepperSteadyStateAllocatesNoBlockTemporaries) {
  EXPECT_EQ(serial_allocations(BackendKind::kMlfma), 0u);
}

TEST(BlockAlloc, CbsStepperSteadyStateAllocatesNoBlockTemporaries) {
  EXPECT_EQ(serial_allocations(BackendKind::kCbs), 0u);
}

TEST(BlockAlloc, PartitionedRanksSteadyStateAllocateNoBlockTemporaries) {
  AllocScene s;
  const PartitionedMlfma pm(s.scene->tree(), s.cfg.mlfma, 2);
  const DbimOptions opts = AllocScene::options(BackendKind::kMlfma);
  std::array<std::size_t, 2> large{};
  VCluster vc(2);
  vc.run([&](Comm& comm) {
    DbimStepper stepper(
        make_partitioned_workspace(comm, 0, 1, pm, s.scene->tree(),
                                   s.scene->transceivers(),
                                   s.scene->measurements(), opts,
                                   s.cfg.forward),
        opts, s.cfg.forward);
    const std::size_t local = pm.local_pixels(comm.rank());
    large[static_cast<std::size_t>(comm.rank())] =
        steady_state_allocations(stepper, local, 8);
  });
  EXPECT_EQ(large[0], 0u);
  EXPECT_EQ(large[1], 0u);
}

// A rebuild forms and inverts every leaf in the preconditioner's own
// storage and per-thread scratch: once the first build has sized the
// scratch, a rebuild allocates nothing on any thread.
TEST(BlockAlloc, PreconditionerRebuildAllocatesNothing) {
  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  const CMatrix& self = engine.nearfield().type(4);
  cvec o_clu(grid.num_pixels());
  tree.to_cluster_order(
      contrast_from_permittivity(
          grid, gaussian_blob(grid, Vec2{0.3, -0.2}, 0.8, cplx{0.02, 0.01})),
      o_clu);
  cvec o_next(o_clu.size());
  for (std::size_t i = 0; i < o_clu.size(); ++i)
    o_next[i] = cplx{1.5, 0.5} * o_clu[i];
  for (const Precision storage : {Precision::kDouble, Precision::kMixed}) {
    NearFieldBlockJacobi p(self, o_clu, storage);
    g_all = 0;
    g_count_all = true;
    p.rebuild(self, o_next);
    g_count_all = false;
    EXPECT_EQ(g_all.load(), 0u)
        << (storage == Precision::kMixed ? "fp32" : "fp64");
  }
}

}  // namespace
}  // namespace ffw
