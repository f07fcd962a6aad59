// OperatorTableCache: single-flight builds under concurrency (the tsan
// preset's `service` label race-checks this file), LRU eviction under a
// byte budget with in-use artifacts staying valid, and key separation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "greens/greens.hpp"
#include "service/table_cache.hpp"

namespace ffw {
namespace {

TEST(TableCache, MlfmaHitReturnsSameArtifact) {
  OperatorTableCache cache;
  Grid grid(32);
  const auto a = cache.mlfma_tables(grid, 8, {});
  const auto b = cache.mlfma_tables(grid, 8, {});
  EXPECT_EQ(a.get(), b.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, a->bytes());
  EXPECT_GT(s.build_seconds, 0.0);
}

TEST(TableCache, KeySeparatesConfigurations) {
  OperatorTableCache cache;
  Grid g32(32), g16(16);
  MlfmaParams loose;
  loose.digits = 3.0;
  const auto a = cache.mlfma_tables(g32, 8, {});
  const auto b = cache.mlfma_tables(g16, 8, {});    // different grid
  const auto c = cache.mlfma_tables(g32, 16, {});   // different leaf
  const auto d = cache.mlfma_tables(g32, 8, loose); // different accuracy
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// The tsan stress case: many threads miss the same key at once; exactly
// one build must run (single-flight) and everyone must get the same
// pointer. Unrelated keys must not serialise behind it.
TEST(TableCache, ConcurrentMissesBuildOnce) {
  OperatorTableCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const OperatorTables>> got(kThreads);
  std::vector<std::shared_ptr<const CbsTables>> got_cbs(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // maximise contention on the first lookup
      Grid grid(32);
      got[static_cast<std::size_t>(i)] = cache.mlfma_tables(grid, 8, {});
      got_cbs[static_cast<std::size_t>(i)] = cache.cbs_tables(grid);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(i)].get());
    EXPECT_EQ(got_cbs[0].get(), got_cbs[static_cast<std::size_t>(i)].get());
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 2u);  // one MLFMA build + one CBS build
  EXPECT_EQ(s.hits, 2u * kThreads - 2u);
}

TEST(TableCache, EvictionRespectsBudgetAndInUseArtifacts) {
  OperatorTableCache cache;
  Grid g32(32), g16(16), g24(24);
  const auto a = cache.cbs_tables(g16);
  const std::size_t a_bytes = a->bytes();
  // Shrink the budget so only ~one CBS artifact fits, then insert more.
  cache.set_budget(a_bytes + 16);
  const auto b = cache.cbs_tables(g24);
  const auto c = cache.cbs_tables(g32);
  const auto s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.entries, 2u);
  // Evicted artifacts stay fully usable through the held shared_ptr.
  EXPECT_EQ(a->grid.nx(), 16);
  EXPECT_FALSE(a->g0hat.empty());
  EXPECT_EQ(b->grid.nx(), 24);
  // A re-request of an evicted key is a fresh miss, not a crash.
  const auto a2 = cache.cbs_tables(g16);
  EXPECT_EQ(a2->grid.nx(), 16);
}

TEST(TableCache, TransceiverPanelMatchesPointEvaluation) {
  OperatorTableCache cache;
  Grid grid(32);
  const double radius = grid.domain();
  const auto tx = ring_positions(4, radius);
  const auto rx = ring_positions(8, radius);
  const auto tt = cache.transceiver_tables(grid, tx, rx);
  const std::size_t n = grid.num_pixels();
  ASSERT_EQ(tt->trx.incident_panel().size(), n * 4);
  for (int t = 0; t < 4; ++t) {
    // incident_field(t) is a view into the owned panel, not a copy.
    const ccspan col = tt->trx.incident_field(t);
    EXPECT_EQ(col.data(),
              tt->trx.incident_panel().data() + static_cast<std::size_t>(t) * n);
    for (std::size_t p = 0; p < n; ++p) {
      const Vec2 rp = grid.pixel_center(static_cast<int>(p) % grid.nx(),
                                        static_cast<int>(p) / grid.nx());
      const cplx direct =
          g0_point(grid.k0(), norm(rp - tx[static_cast<std::size_t>(t)]));
      ASSERT_EQ(direct, col[p]);  // bit-identical, not approximately
    }
  }
  // The cache's LRU budget counts both panels the artifact owns.
  EXPECT_EQ(tt->bytes(), (8 + 4) * n * sizeof(cplx));
  EXPECT_EQ(cache.stats().bytes, tt->bytes());
  // Same geometry hits; different geometry misses.
  const auto again = cache.transceiver_tables(grid, tx, rx);
  EXPECT_EQ(tt.get(), again.get());
  const auto other = cache.transceiver_tables(grid, ring_positions(5, radius),
                                              rx);
  EXPECT_NE(tt.get(), other.get());
}

TEST(TableCache, ClearDropsResidency) {
  OperatorTableCache cache;
  Grid grid(16);
  const auto a = cache.cbs_tables(grid);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_FALSE(a->g0hat.empty());  // hand-out survives
  const auto b = cache.cbs_tables(grid);
  EXPECT_EQ(cache.stats().misses, 2u);
}

}  // namespace
}  // namespace ffw
