// Fault-injection, failure-propagation and deadlock-diagnostic tests
// for the virtual cluster (DESIGN.md Sec. 12). `ctest -L fault` runs
// this file; the tsan/asan presets include the label.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "vcluster/comm.hpp"

namespace ffw {
namespace {

std::vector<unsigned char> payload(int seed, std::size_t n) {
  std::vector<unsigned char> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<unsigned char>((seed * 131 + static_cast<int>(i)) & 0xFF);
  return v;
}

// ---- CRC32 --------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const unsigned char*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  const std::vector<unsigned char> v = payload(7, 1000);
  const std::uint32_t whole = crc32(v.data(), v.size());
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{13}, std::size_t{999}}) {
    const std::uint32_t part = crc32(v.data(), split);
    EXPECT_EQ(crc32(v.data() + split, v.size() - split, part), whole);
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<unsigned char> v = payload(3, 256);
  const std::uint32_t before = crc32(v.data(), v.size());
  v[100] ^= 0x01u;
  EXPECT_NE(crc32(v.data(), v.size()), before);
}

// ---- Deterministic decisions --------------------------------------------

TEST(FaultPlanTest, DecisionsReplayBitForBit) {
  FaultPlan plan;
  plan.seed = 42;
  plan.all = {0.1, 0.1, 0.1, 0.1};
  std::vector<FaultAction> first;
  for (std::uint64_t s = 0; s < 500; ++s)
    first.push_back(fault_decide(plan, 0, 1, 7, s));
  for (std::uint64_t s = 0; s < 500; ++s)
    EXPECT_EQ(fault_decide(plan, 0, 1, 7, s), first[s]) << s;
  // A different seed must give a different schedule.
  FaultPlan other = plan;
  other.seed = 43;
  int diff = 0;
  for (std::uint64_t s = 0; s < 500; ++s)
    diff += fault_decide(other, 0, 1, 7, s) != first[s];
  EXPECT_GT(diff, 0);
}

TEST(FaultPlanTest, EdgesAreIndependentStreams) {
  FaultPlan plan;
  plan.all = {0.5, 0.0, 0.0, 0.0};
  int diff = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    diff += fault_decide(plan, 0, 1, 7, s) != fault_decide(plan, 1, 0, 7, s);
  }
  EXPECT_GT(diff, 0);  // (src, dst) and (dst, src) must not mirror
}

TEST(FaultPlanTest, RatesRoughlyHonored) {
  FaultPlan plan;
  plan.all = {0.25, 0.0, 0.0, 0.0};
  int drops = 0;
  const int n = 4000;
  for (std::uint64_t s = 0; s < n; ++s)
    drops += fault_decide(plan, 2, 3, 1, s) == FaultAction::kDrop;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.05);
}

// ---- Injection through the cluster --------------------------------------

TEST(FaultInjection, DuplicatesAreInvisibleToReceiver) {
  // p = 4 ring exchange with 100% duplication: the per-edge sequence
  // dedup must deliver each message exactly once, in order.
  VCluster vc(4);
  FaultPlan plan;
  plan.all.duplicate = 1.0;
  vc.install_fault_plan(plan);
  constexpr int kN = 32;
  vc.run([&](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < kN; ++i) {
      const int v[1] = {c.rank() * 1000 + i};
      c.send(next, 5, std::span<const int>(v, 1));
    }
    for (int i = 0; i < kN; ++i) {
      const std::vector<int> got = c.recv<int>(prev, 5);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], prev * 1000 + i);
    }
    // No stray extra message may remain queued.
    EXPECT_FALSE(c.probe(prev, 5));
  });
  EXPECT_EQ(vc.fault_stats().duplicates, 4u * kN);
  // The ledger counts each send once — duplication is delivery-side.
  EXPECT_EQ(vc.traffic().total_messages(), 4u * kN);
}

TEST(FaultInjection, ReorderedFramesCommitInSendOrder) {
  VCluster vc(2);
  FaultPlan plan;
  plan.all.reorder = 0.4;
  plan.all.reorder_hold_us = 2000;
  vc.install_fault_plan(plan);
  constexpr int kN = 64;
  vc.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        const int v[1] = {i};
        c.send(1, 9, std::span<const int>(v, 1));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(c.recv<int>(0, 9).at(0), i);
      }
    }
  });
  EXPECT_GT(vc.fault_stats().reorders, 0u);
}

TEST(FaultInjection, CorruptionIsDetectedAtRecv) {
  VCluster vc(2);
  FaultPlan plan;
  plan.per_edge[{0, 1}] = FaultSpec{0.0, 0.0, 0.0, 1.0};
  vc.install_fault_plan(plan);
  bool threw = false;
  try {
    vc.run([&](Comm& c) {
      if (c.rank() == 0) {
        const std::vector<unsigned char> v = payload(1, 4096);
        c.send(1, 3, std::span<const unsigned char>(v));
      } else {
        (void)c.recv<unsigned char>(0, 3);
      }
    });
  } catch (const CorruptMessage& e) {
    threw = true;
    EXPECT_EQ(e.rank(), 1);
    EXPECT_NE(std::string(e.what()).find("tag=3"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(vc.fault_stats().corruptions, 1u);
}

TEST(FaultInjection, CrashAtNthSendFiresOnceAndIsRecoverable) {
  VCluster vc(8);
  FaultPlan plan;
  plan.crashes.push_back({3, 2});  // rank 3 dies on its 2nd send
  vc.install_fault_plan(plan);
  const auto program = [&](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < 4; ++i) {
      const int v[1] = {i};
      c.send(next, 1, std::span<const int>(v, 1));
      (void)c.recv<int>(prev, 1);
    }
  };
  bool threw = false;
  try {
    vc.run(program);
  } catch (const RankFailure& e) {
    threw = true;
    EXPECT_EQ(e.rank(), 3);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(vc.fault_stats().crashes, 1u);

  // The trigger is consumed and the send counters survive recover():
  // the rerun completes.
  vc.recover();
  vc.run(program);
  EXPECT_EQ(vc.fault_stats().crashes, 1u);
}

TEST(FaultInjection, StallDelaysButCompletes) {
  VCluster vc(2);
  FaultPlan plan;
  plan.stalls.push_back({0, 1, 20000});  // 20 ms stall at rank 0's 1st send
  vc.install_fault_plan(plan);
  vc.run([&](Comm& c) {
    if (c.rank() == 0) {
      const double v[1] = {1.5};
      c.send(1, 2, std::span<const double>(v, 1));
    } else {
      EXPECT_EQ(c.recv<double>(0, 2).at(0), 1.5);
    }
  });
  EXPECT_EQ(vc.fault_stats().stalls, 1u);
}

TEST(FaultInjection, DropSurfacesAsDiagnosedDeadline) {
  // p = 2: the only message is dropped; the receiver's deadline expires
  // and the report names the missing (src, tag) key.
  VCluster vc(2);
  FaultPlan plan;
  plan.per_edge[{0, 1}] = FaultSpec{1.0, 0.0, 0.0, 0.0};
  vc.install_fault_plan(plan);
  vc.set_comm_options(CommOptions{200});
  bool threw = false;
  try {
    vc.run([&](Comm& c) {
      if (c.rank() == 0) {
        const int v[1] = {7};
        c.send(1, 11, std::span<const int>(v, 1));
      } else {
        (void)c.recv<int>(0, 11);
      }
    });
  } catch (const DeadlineExceeded& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("(src=0, tag=11)"),
              std::string::npos);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(vc.fault_stats().drops, 1u);
}

TEST(FaultInjection, MixedChaosAtP4StillDeliversEverything) {
  // Duplication + reorder chaos (no drops/corruption) on all edges of an
  // all-to-all exchange: every payload arrives intact and in per-edge
  // order, and the traffic ledger is exactly what a fault-free run logs.
  VCluster clean(4);
  VCluster vc(4);
  FaultPlan plan;
  plan.seed = 99;
  plan.all.duplicate = 0.3;
  plan.all.reorder = 0.3;
  plan.all.reorder_hold_us = 1000;
  vc.install_fault_plan(plan);
  const auto program = [](Comm& c) {
    constexpr int kN = 16;
    for (int r = 0; r < c.size(); ++r) {
      if (r == c.rank()) continue;
      for (int i = 0; i < kN; ++i) {
        const int v[2] = {c.rank(), i};
        c.send(r, 4, std::span<const int>(v, 2));
      }
    }
    for (int r = 0; r < c.size(); ++r) {
      if (r == c.rank()) continue;
      for (int i = 0; i < kN; ++i) {
        const std::vector<int> got = c.recv<int>(r, 4);
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], r);
        EXPECT_EQ(got[1], i);
      }
    }
  };
  clean.run(program);
  vc.run(program);
  EXPECT_GT(vc.fault_stats().total(), 0u);
  const TrafficStats a = clean.traffic(), b = vc.traffic();
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.messages, b.messages);
}

// ---- Deadline / wait-for graph ------------------------------------------

TEST(DeadlineTest, TwoRankCycleIsNamedInTheReport) {
  // The acceptance scenario: a deliberately deadlocked two-rank exchange
  // (both ranks recv first) aborts within the deadline and the dumped
  // wait-for graph names both blocked (src, tag) keys and the cycle.
  VCluster vc(2);
  vc.set_comm_options(CommOptions{250});
  bool threw = false;
  try {
    vc.run([&](Comm& c) {
      if (c.rank() == 0) {
        (void)c.recv<int>(1, 7);  // never sent
      } else {
        (void)c.recv<int>(0, 9);  // never sent
      }
    });
  } catch (const DeadlineExceeded& e) {
    threw = true;
    const std::string what = e.what();
    EXPECT_NE(what.find("(src=1, tag=7)"), std::string::npos) << what;
    EXPECT_NE(what.find("(src=0, tag=9)"), std::string::npos) << what;
    EXPECT_NE(what.find("wait-for cycle"), std::string::npos) << what;
  }
  EXPECT_TRUE(threw);
}

TEST(DeadlineTest, BarrierStragglerIsDiagnosed) {
  VCluster vc(3);
  vc.set_comm_options(CommOptions{250});
  EXPECT_THROW(vc.run([&](Comm& c) {
                 if (c.rank() != 2) c.barrier();  // rank 2 never arrives
               }),
               DeadlineExceeded);
  vc.recover();
}

TEST(DeadlineTest, SatisfiedWaitsNeverAbort) {
  VCluster vc(4);
  vc.set_comm_options(CommOptions{5000});
  vc.run([&](Comm& c) {
    c.barrier();
    const double v = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_EQ(v, 3.0);
    c.barrier();
  });
}

// ---- Poison / recovery lifecycle ----------------------------------------

TEST(RecoveryTest, FailurePoisonsBlockedPeers) {
  // Rank 1 crashes; ranks 0/2/3 are parked in recv/barrier and must
  // unwind (ClusterAborted) instead of hanging; run() rethrows the
  // primary RankFailure.
  VCluster vc(4);
  FaultPlan plan;
  plan.crashes.push_back({1, 1});
  vc.install_fault_plan(plan);
  EXPECT_THROW(vc.run([&](Comm& c) {
                 if (c.rank() == 1) {
                   const int v[1] = {0};
                   c.send(0, 1, std::span<const int>(v, 1));  // crashes here
                 } else if (c.rank() == 0) {
                   (void)c.recv<int>(1, 1);
                 } else {
                   c.barrier();
                 }
               }),
               RankFailure);

  vc.recover();
  // Cluster is fully usable again (mailboxes clean, barrier reset).
  vc.run([&](Comm& c) {
    c.barrier();
    if (c.rank() == 0) {
      const int v[1] = {42};
      c.send(2, 8, std::span<const int>(v, 1));
    }
    if (c.rank() == 2) {
      EXPECT_EQ(c.recv<int>(0, 8).at(0), 42);
    }
  });
}

TEST(RecoveryTest, FrameOverheadAccountedSeparately) {
  VCluster vc(2);
  vc.run([&](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<unsigned char> v = payload(0, 100);
      for (int i = 0; i < 5; ++i)
        c.send(1, 1, std::span<const unsigned char>(v));
    } else {
      for (int i = 0; i < 5; ++i) (void)c.recv<unsigned char>(0, 1);
    }
  });
  // Payload ledger: 5 x 100 bytes; framing (seq + CRC) kept out of it.
  EXPECT_EQ(vc.traffic().total_bytes(), 500u);
  EXPECT_EQ(vc.frame_overhead_bytes(), 5u * VCluster::kFrameBytes);
}

}  // namespace
}  // namespace ffw
