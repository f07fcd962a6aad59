// Tracing & counters subsystem (src/obs): span recording, nesting,
// ring-buffer overflow accounting, the disabled fast path, counter
// attribution per vcluster rank, chrome://tracing export validity, and
// the cross-rank summary collective.
//
// Tests restore the obs global state (disabled + reset) on exit so the
// other suites in this binary see a quiet subsystem.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "json_check.hpp"
#include "obs/obs.hpp"
#include "obs/summary.hpp"
#include "parallel/parallel_for.hpp"
#include "vcluster/comm.hpp"

namespace ffw {
namespace {

/// RAII guard: every test records from a clean slate and leaves the
/// subsystem disabled and empty.
struct ObsSession {
  ObsSession() {
    obs::set_enabled(false);
    obs::reset();
    obs::set_ring_capacity(std::size_t{1} << 15);
    obs::set_enabled(true);
  }
  ~ObsSession() {
    obs::set_enabled(false);
    obs::reset();
    obs::set_ring_capacity(std::size_t{1} << 15);
  }
};

/// Events recorded by the calling thread's rank since the session began.
std::vector<obs::detail::SpanEvent> my_rank_events(int rank = 0) {
  std::vector<obs::detail::SpanEvent> out;
  for (const obs::ThreadSnapshot& s : obs::snapshot()) {
    if (s.rank != rank) continue;
    out.insert(out.end(), s.events.begin(), s.events.end());
  }
  return out;
}

TEST(Obs, DisabledRecordsNothing) {
  ObsSession session;
  obs::set_enabled(false);
  {
    FFW_TRACE_SPAN("should_not_appear");
    obs::add(obs::Counter::kWireBytes, 1234);
  }
  obs::set_enabled(true);
  EXPECT_TRUE(my_rank_events().empty());
  EXPECT_EQ(obs::counter_totals(0)[static_cast<std::size_t>(
                obs::Counter::kWireBytes)],
            0u);
}

TEST(Obs, SpansRecordNameArgAndNesting) {
  ObsSession session;
  {
    FFW_TRACE_SPAN("outer", 7);
    {
      FFW_TRACE_SPAN("inner");
    }
  }
  const auto events = my_rank_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close innermost-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].arg, obs::kNoArg);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[1].arg, 7);
  // The outer span fully contains the inner one.
  EXPECT_LE(events[1].begin_ns, events[0].begin_ns);
  EXPECT_GE(events[1].end_ns, events[0].end_ns);
}

TEST(Obs, SpanDurationAccumulatesIntoCounter) {
  ObsSession session;
  {
    obs::SpanScope span("timed", obs::kNoArg, obs::Counter::kComputeNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto totals = obs::counter_totals(0);
  EXPECT_GE(totals[static_cast<std::size_t>(obs::Counter::kComputeNs)],
            1'000'000u);  // at least 1 ms of the 2 ms sleep
}

TEST(Obs, RingOverwritesOldestAndCountsDrops) {
  ObsSession session;
  obs::set_ring_capacity(8);
  for (int i = 0; i < 20; ++i) {
    FFW_TRACE_SPAN("ring", i);
  }
  std::uint64_t dropped = 0;
  std::size_t events = 0;
  for (const obs::ThreadSnapshot& s : obs::snapshot()) {
    if (s.rank != 0) continue;
    dropped += s.dropped;
    events += s.events.size();
  }
  EXPECT_EQ(events, 8u);
  EXPECT_EQ(dropped, 12u);
  // The survivors are the 8 newest spans (args 12..19 in some rotation).
  for (const auto& ev : my_rank_events()) EXPECT_GE(ev.arg, 12);
}

TEST(Obs, ResetClearsEventsAndCounters) {
  ObsSession session;
  {
    FFW_TRACE_SPAN("gone");
  }
  obs::add(obs::Counter::kMlfmaApplications, 3);
  obs::reset();
  EXPECT_TRUE(my_rank_events().empty());
  EXPECT_EQ(obs::counter_totals(0)[static_cast<std::size_t>(
                obs::Counter::kMlfmaApplications)],
            0u);
}

TEST(Obs, PhaseTotalsSumPerName) {
  ObsSession session;
  for (int i = 0; i < 3; ++i) {
    FFW_TRACE_SPAN("phase_a");
  }
  {
    FFW_TRACE_SPAN("phase_b");
  }
  const auto totals = obs::phase_totals(0);
  ASSERT_EQ(totals.size(), 2u);  // sorted by name
  EXPECT_EQ(totals[0].name, "phase_a");
  EXPECT_EQ(totals[0].count, 3u);
  EXPECT_EQ(totals[1].name, "phase_b");
  EXPECT_EQ(totals[1].count, 1u);
}

TEST(Obs, RankThreadsAttributeToTheirRank) {
  ObsSession session;
  const int p = 4;
  VCluster vc(p);
  vc.run([](Comm& comm) {
    FFW_TRACE_SPAN("rank_work", comm.rank());
    obs::add(obs::Counter::kBicgstabIterations,
             static_cast<std::uint64_t>(comm.rank() + 1));
  });
  for (int r = 0; r < p; ++r) {
    const auto totals = obs::counter_totals(r);
    EXPECT_EQ(totals[static_cast<std::size_t>(
                  obs::Counter::kBicgstabIterations)],
              static_cast<std::uint64_t>(r + 1))
        << "rank " << r;
    const auto phases = obs::phase_totals(r);
    ASSERT_EQ(phases.size(), 1u) << "rank " << r;
    EXPECT_EQ(phases[0].name, "rank_work");
    EXPECT_EQ(phases[0].count, 1u);
  }
}

TEST(Obs, WireBytesBridgeFromVcluster) {
  ObsSession session;
  const int p = 2;
  VCluster vc(p);
  vc.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const double payload[16] = {};
      comm.send(1, 3, std::span<const double>(payload, 16));
    } else {
      (void)comm.recv<double>(0, 3);
    }
  });
  // Sender's counter carries the bytes; the ledger agrees.
  EXPECT_EQ(obs::counter_totals(0)[static_cast<std::size_t>(
                obs::Counter::kWireBytes)],
            16u * sizeof(double));
  EXPECT_EQ(obs::counter_totals(1)[static_cast<std::size_t>(
                obs::Counter::kWireBytes)],
            0u);
  EXPECT_EQ(vc.traffic().total_bytes(), 16u * sizeof(double));
}

TEST(Obs, ChromeTraceExportIsValidJson) {
  ObsSession session;
  const int p = 3;
  VCluster vc(p);
  vc.run([](Comm& comm) {
    FFW_TRACE_SPAN("apply", comm.rank());
    {
      FFW_TRACE_SPAN("translate", 0);
    }
  });
  const std::string path = "/tmp/ffw_obs_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  EXPECT_TRUE(testing::json_valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // One process metadata record per rank, plus the recorded spans.
  for (int r = 0; r < p; ++r) {
    EXPECT_NE(text.find("rank " + std::to_string(r)), std::string::npos);
  }
  EXPECT_NE(text.find("\"translate\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  // Run metadata: the thread cap in effect.
  EXPECT_NE(text.find("\"otherData\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_cap\": " + std::to_string(num_threads())),
            std::string::npos)
      << text;
}

TEST(ObsSummary, CollectsMinMedianMaxAcrossRanks) {
  ObsSession session;
  const int p = 4;
  VCluster vc(p);
  // Every rank records the same phase names (the SPMD contract) but
  // different durations and counter values.
  vc.run([](Comm& comm) {
    {
      obs::SpanScope span("work", obs::kNoArg, obs::Counter::kComputeNs);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + comm.rank()));
    }
    obs::add(obs::Counter::kMlfmaApplications,
             static_cast<std::uint64_t>(10 * (comm.rank() + 1)));
  });
  obs::set_enabled(false);  // keep the collection itself out of the data
  obs::ClusterSummary sum;
  vc.run([&](Comm& comm) {
    obs::ClusterSummary s = obs::collect_summary(comm);
    if (comm.rank() == 0) sum = std::move(s);
  });
  obs::set_enabled(true);

  EXPECT_EQ(sum.nranks, p);
  ASSERT_EQ(sum.phases.size(), 1u);
  EXPECT_EQ(sum.phases[0].name, "work");
  EXPECT_EQ(sum.phases[0].count, static_cast<std::uint64_t>(p));
  EXPECT_GT(sum.phases[0].min_ms, 0.0);
  EXPECT_LE(sum.phases[0].min_ms, sum.phases[0].med_ms);
  EXPECT_LE(sum.phases[0].med_ms, sum.phases[0].max_ms);

  const auto& apps = sum.counters[static_cast<std::size_t>(
      obs::Counter::kMlfmaApplications)];
  EXPECT_EQ(apps.min, 10u);
  EXPECT_EQ(apps.max, static_cast<std::uint64_t>(10 * p));
  EXPECT_EQ(apps.total, 10u + 20u + 30u + 40u);

  // The formatted table mentions the phase and the counter by name.
  const std::string table = obs::format_summary(sum);
  EXPECT_NE(table.find("work"), std::string::npos);
  EXPECT_NE(table.find("mlfma_applications"), std::string::npos);
}

TEST(ObsSummary, UnionsAsymmetricSpanSetsAcrossRanks) {
  // Regression: ranks can legitimately record different span sets (a
  // rank whose halos all arrive during local work never parks in
  // wait_any, so it records no halo-wait span). The summary must union
  // the names with zero rows for absent phases, not abort.
  ObsSession session;
  const int p = 3;
  VCluster vc(p);
  vc.run([](Comm& comm) {
    {
      FFW_TRACE_SPAN("common");
    }
    if (comm.rank() == 1) {
      FFW_TRACE_SPAN("only_rank1");
    }
  });
  obs::set_enabled(false);
  obs::ClusterSummary sum;
  vc.run([&](Comm& comm) {
    obs::ClusterSummary s = obs::collect_summary(comm);
    if (comm.rank() == 0) sum = std::move(s);
  });
  obs::set_enabled(true);

  ASSERT_EQ(sum.phases.size(), 2u);
  EXPECT_EQ(sum.phases[0].name, "common");
  EXPECT_EQ(sum.phases[0].count, static_cast<std::uint64_t>(p));
  EXPECT_EQ(sum.phases[1].name, "only_rank1");
  EXPECT_EQ(sum.phases[1].count, 1u);
  // Two of the three ranks never entered only_rank1: min (and median)
  // across ranks is exactly zero, max is the recording rank's time.
  EXPECT_EQ(sum.phases[1].min_ms, 0.0);
  EXPECT_EQ(sum.phases[1].med_ms, 0.0);
  EXPECT_GT(sum.phases[1].max_ms, 0.0);
}

TEST(ObsSummary, CompatibleWithComputeVsHaloWaitCounters) {
  // The partitioned apply pattern: compute spans and halo-wait spans
  // feed disjoint nanosecond counters whose sum tracks wall time.
  ObsSession session;
  {
    obs::SpanScope span("compute", obs::kNoArg, obs::Counter::kComputeNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    obs::SpanScope span("wait", obs::kNoArg, obs::Counter::kHaloWaitNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto totals = obs::counter_totals(0);
  const auto compute =
      totals[static_cast<std::size_t>(obs::Counter::kComputeNs)];
  const auto wait =
      totals[static_cast<std::size_t>(obs::Counter::kHaloWaitNs)];
  EXPECT_GE(compute, 1'000'000u);
  EXPECT_GE(wait, 500'000u);
}

}  // namespace
}  // namespace ffw
