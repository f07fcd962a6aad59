#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "io/json.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kBicgstabIterations: return "bicgstab_iterations";
    case Counter::kRefinementRounds: return "refinement_rounds";
    case Counter::kMlfmaApplications: return "mlfma_applications";
    case Counter::kHaloWaitNs: return "halo_wait_ns";
    case Counter::kComputeNs: return "compute_ns";
    case Counter::kWireBytes: return "wire_bytes";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kCrcFailures: return "crc_failures";
    case Counter::kDeadlineAborts: return "deadline_aborts";
    case Counter::kBicgstabTotalIters: return "bicgstab_total_iters";
    case Counter::kPrecondSetupNs: return "precond_setup_ns";
    case Counter::kPrecondApplyNs: return "precond_apply_ns";
    case Counter::kRecycleHits: return "recycle_hits";
    case Counter::kCbsIterations: return "cbs_iterations";
    case Counter::kFftNs: return "fft_ns";
    case Counter::kFftPlanHits: return "fft_plan_hits";
    case Counter::kFftPlanMisses: return "fft_plan_misses";
    case Counter::kTableCacheHits: return "table_cache_hits";
    case Counter::kTableCacheMisses: return "table_cache_misses";
    case Counter::kTableCacheEvictions: return "table_cache_evictions";
    case Counter::kTableBuildNs: return "table_build_ns";
    case Counter::kTransportSyscalls: return "transport_syscalls";
    case Counter::kRingFullStalls: return "ring_full_stalls";
    case Counter::kTransportWireBytes: return "transport_wire_bytes";
    default: return "?";
  }
}

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

std::atomic<std::size_t> g_ring_capacity{std::size_t{1} << 15};

/// One thread's recording state. The mutex only ever contends with a
/// snapshotting reader (snapshot/reset/export) — recording threads each
/// own their log, so lock acquisition is uncontended in steady state.
struct ThreadLog {
  std::mutex mu;
  int rank = 0;
  std::uint64_t tid = 0;
  std::uint16_t depth = 0;
  std::uint64_t dropped = 0;
  std::size_t head = 0;  // overwrite cursor once the ring is full
  std::vector<SpanEvent> events;
  std::array<std::uint64_t, kNumCounters> counters{};
};

/// Owns every ThreadLog for the process lifetime: rank threads die with
/// each VCluster::run, but their logs must survive for export, and the
/// surviving threads' thread_local pointers must stay valid across
/// reset(). Logs are therefore never deallocated, only cleared.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during exit
  return *r;
}

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    reg.logs.push_back(std::make_unique<ThreadLog>());
    log = reg.logs.back().get();
    log->tid = reg.logs.size() - 1;
  }
  return *log;
}

}  // namespace

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

std::uint16_t enter_span() {
  ThreadLog& log = local_log();
  std::lock_guard lk(log.mu);
  return log.depth++;
}

void record_span(const char* name, std::int64_t arg, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::uint16_t depth) {
  ThreadLog& log = local_log();
  std::lock_guard lk(log.mu);
  if (log.depth > 0) --log.depth;
  const SpanEvent ev{name, arg, begin_ns, end_ns, depth};
  const std::size_t cap = g_ring_capacity.load(std::memory_order_relaxed);
  if (log.events.size() < cap) {
    log.events.push_back(ev);
    return;
  }
  // Ring full: overwrite the oldest slot and account the loss.
  if (log.events.empty()) return;  // capacity forced to zero
  log.events[log.head] = ev;
  log.head = (log.head + 1) % log.events.size();
  ++log.dropped;
}

void add_counter(Counter c, std::uint64_t v) {
  ThreadLog& log = local_log();
  std::lock_guard lk(log.mu);
  log.counters[static_cast<std::size_t>(c)] += v;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_rank(int rank) {
  if (!enabled()) return;
  detail::ThreadLog& log = detail::local_log();
  std::lock_guard lk(log.mu);
  log.rank = rank;
}

void reset() {
  detail::Registry& reg = detail::registry();
  std::lock_guard lk(reg.mu);
  for (auto& log : reg.logs) {
    std::lock_guard llk(log->mu);
    log->events.clear();
    log->events.shrink_to_fit();
    log->head = 0;
    log->dropped = 0;
    log->depth = 0;
    log->counters.fill(0);
  }
}

void set_ring_capacity(std::size_t events) {
  detail::g_ring_capacity.store(events, std::memory_order_relaxed);
}

std::vector<ThreadSnapshot> snapshot() {
  detail::Registry& reg = detail::registry();
  std::lock_guard lk(reg.mu);
  std::vector<ThreadSnapshot> out;
  out.reserve(reg.logs.size());
  for (auto& log : reg.logs) {
    std::lock_guard llk(log->mu);
    ThreadSnapshot s;
    s.rank = log->rank;
    s.tid = log->tid;
    s.dropped = log->dropped;
    s.events = log->events;
    s.counters = log->counters;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<PhaseTotal> phase_totals(int rank) {
  std::map<std::string, PhaseTotal> acc;
  for (const ThreadSnapshot& s : snapshot()) {
    if (s.rank != rank) continue;
    for (const detail::SpanEvent& ev : s.events) {
      PhaseTotal& t = acc[ev.name];
      t.ns += ev.end_ns - ev.begin_ns;
      t.count += 1;
    }
  }
  std::vector<PhaseTotal> out;
  out.reserve(acc.size());
  for (auto& [name, t] : acc) {
    t.name = name;
    out.push_back(std::move(t));
  }
  return out;  // std::map iteration is already name-sorted
}

std::array<std::uint64_t, kNumCounters> counter_totals(int rank) {
  std::array<std::uint64_t, kNumCounters> out{};
  for (const ThreadSnapshot& s : snapshot()) {
    if (s.rank != rank) continue;
    for (std::size_t i = 0; i < kNumCounters; ++i) out[i] += s.counters[i];
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<ThreadSnapshot> snaps = snapshot();
  JsonWriter json(path);
  if (!json.ok()) return false;
  json.begin_array("traceEvents");
  // Process metadata: one "process" per rank so chrome://tracing groups
  // rank timelines.
  std::vector<int> ranks;
  for (const ThreadSnapshot& s : snaps) ranks.push_back(s.rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  for (const int r : ranks) {
    json.begin_object();
    json.field("name", "process_name");
    json.field("ph", "M");
    json.field("pid", r);
    json.begin_object("args");
    json.field("name", "rank " + std::to_string(r));
    json.end();
    json.end();
  }
  for (const ThreadSnapshot& s : snaps) {
    for (const detail::SpanEvent& ev : s.events) {
      json.begin_object();
      json.field("name", ev.name);
      json.field("ph", "X");
      json.field("pid", s.rank);
      json.field("tid", static_cast<std::uint64_t>(s.tid));
      json.field("ts", static_cast<double>(ev.begin_ns) * 1e-3);
      json.field("dur", static_cast<double>(ev.end_ns - ev.begin_ns) * 1e-3);
      if (ev.arg != kNoArg) {
        json.begin_object("args");
        json.field("arg", static_cast<std::int64_t>(ev.arg));
        json.end();
      }
      json.end();
    }
  }
  json.end();
  // Run metadata: the thread cap in effect when the trace was written.
  json.begin_object("otherData");
  json.field("thread_cap", num_threads());
  json.field("hardware_threads", hardware_threads());
  json.end();
  json.close();
  return true;
}

}  // namespace ffw::obs
