// Rank-level tracing and counters (observability subsystem).
//
// PRs 1-3 shipped three stacked performance claims (blocked apply,
// overlap scheduling, mixed precision) justified by end-to-end bench
// timings only; the paper argues from per-phase breakdowns (Fig. 8's
// overlap ablation, Table III's operator timings). This module provides
// the per-rank, per-thread evidence: scoped spans on a ring buffer plus
// a small set of fixed counters, exportable as chrome://tracing JSON and
// as a per-rank summary (obs/summary.hpp aggregates it across ranks with
// the existing Comm collectives).
//
// Design constraints (DESIGN.md Sec. 11):
//  * Disabled cost is one relaxed atomic load + branch per call site —
//    tracing defaults to off and tier-1 timings are unaffected.
//  * Each thread records into its own fixed-capacity ring buffer (oldest
//    events are overwritten, a drop counter keeps the loss visible), so
//    recording never allocates in steady state and never contends with
//    other threads except with a snapshotting reader (per-log mutex).
//  * Ranks are vcluster threads: VCluster::run tags each rank thread via
//    set_rank(), so spans and counters attribute to the rank that
//    recorded them, and the wire-byte counter is bridged straight from
//    the vcluster send path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ffw::obs {

/// Fixed counter set. Nanosecond counters are fed by spans constructed
/// with an `accumulate` counter (e.g. halo-wait vs compute time of the
/// partitioned apply); the rest are bumped explicitly at the event site.
enum class Counter : int {
  kBicgstabIterations = 0,  // block BiCGStab iterations (forward/)
  kRefinementRounds,        // mixed-precision refinement rounds
  kMlfmaApplications,       // per-RHS operator applications
  kHaloWaitNs,              // time blocked on halo recv / wait_any
  kComputeNs,               // time in local translate/near/downward work
  kWireBytes,               // bytes sent (bridged from vcluster)
  kFaultsInjected,          // fault-injection actions fired (vcluster)
  kCrcFailures,             // corrupt frames detected at recv
  kDeadlineAborts,          // waits that expired into DeadlineExceeded
  kBicgstabTotalIters,      // per-column BiCGStab iterations (all RHS)
  kPrecondSetupNs,          // near-field block preconditioner factor time
  kPrecondApplyNs,          // preconditioner triangular-solve time
  kRecycleHits,             // Krylov-recycled initial guesses applied
  kCbsIterations,           // FFT-backend block BiCGStab iterations
  kFftNs,                   // time in padded-FFT operator applies, pack to crop
  kFftPlanHits,             // fp64 1-D FFT plan-cache hits (fft/fft2)
  kFftPlanMisses,           // fp64 1-D FFT plan-cache misses (plans built)
  kTableCacheHits,          // OperatorTableCache hits (service/table_cache)
  kTableCacheMisses,        // OperatorTableCache misses (artifacts built)
  kTableCacheEvictions,     // OperatorTableCache LRU evictions
  kTableBuildNs,            // time building cached operator-table artifacts
  kTransportSyscalls,       // futex/socket syscalls issued by a transport
  kRingFullStalls,          // shm-ring producer backoffs on a full ring
  kTransportWireBytes,      // physical transport bytes incl. envelopes
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c);

inline constexpr std::int64_t kNoArg = -1;

namespace detail {
extern std::atomic<bool> g_enabled;

/// One closed span. `name` must have static storage duration (call
/// sites pass string literals); `arg` is a free slot for the MLFMA
/// level or similar.
struct SpanEvent {
  const char* name;
  std::int64_t arg;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint16_t depth;
};

std::uint64_t now_ns();
/// Enters a nesting level; returns the depth the span runs at.
std::uint16_t enter_span();
/// Records the closed span into the calling thread's ring buffer and
/// leaves the nesting level opened by the matching enter_span().
void record_span(const char* name, std::int64_t arg, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::uint16_t depth);
void add_counter(Counter c, std::uint64_t v);
}  // namespace detail

/// Master switch. Off by default; every recording call site reduces to a
/// single branch while disabled.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Tags the calling thread with the vcluster rank it executes (no-op
/// while disabled). VCluster::run calls this on every rank thread.
void set_rank(int rank);

/// Drops all recorded events, counters and drop counts on every thread
/// (registrations stay). Call only while no thread is recording.
void reset();

/// Ring capacity (span events per thread) applied to logs as they fill;
/// lowering it below a log's current size stops its growth. Default 1<<15.
void set_ring_capacity(std::size_t events);

/// Bumps a counter on the calling thread (attributed to its rank).
inline void add(Counter c, std::uint64_t v) {
  if (!enabled()) return;
  detail::add_counter(c, v);
}

/// RAII span. Records begin/end on destruction; optionally accumulates
/// its own duration into a nanosecond counter (kHaloWaitNs / kComputeNs).
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t arg = kNoArg,
                     Counter accumulate = Counter::kCount)
      : name_(name), arg_(arg), acc_(accumulate), live_(enabled()) {
    if (!live_) return;
    depth_ = detail::enter_span();
    begin_ = detail::now_ns();
  }
  ~SpanScope() {
    if (!live_) return;
    const std::uint64_t end = detail::now_ns();
    detail::record_span(name_, arg_, begin_, end, depth_);
    if (acc_ != Counter::kCount) detail::add_counter(acc_, end - begin_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  Counter acc_;
  std::uint64_t begin_ = 0;
  std::uint16_t depth_ = 0;
  bool live_;
};

#define FFW_OBS_CONCAT_(a, b) a##b
#define FFW_OBS_CONCAT(a, b) FFW_OBS_CONCAT_(a, b)
/// Scoped span: FFW_TRACE_SPAN("translate", level) — records from here
/// to the end of the enclosing block when tracing is enabled.
#define FFW_TRACE_SPAN(...) \
  ::ffw::obs::SpanScope FFW_OBS_CONCAT(ffw_trace_span_, __LINE__){__VA_ARGS__}

// ---- Read side (export and aggregation inputs) ----

/// Copy of one thread's log, taken under that log's mutex.
struct ThreadSnapshot {
  int rank = 0;
  std::uint64_t tid = 0;
  std::uint64_t dropped = 0;
  std::vector<detail::SpanEvent> events;
  std::array<std::uint64_t, kNumCounters> counters{};
};
std::vector<ThreadSnapshot> snapshot();

/// Total wall-nanoseconds and span count per span name, summed over all
/// threads tagged with `rank`, sorted by name. The per-rank input of the
/// cross-rank summary (obs/summary.hpp).
struct PhaseTotal {
  std::string name;
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
};
std::vector<PhaseTotal> phase_totals(int rank);

/// Counter totals over all threads tagged with `rank`.
std::array<std::uint64_t, kNumCounters> counter_totals(int rank);

/// Writes every recorded span as a chrome://tracing "traceEvents" JSON
/// file (pid = rank, tid = per-thread registration index, complete "X"
/// events in microseconds), plus the run metadata "otherData":
/// {"thread_cap": num_threads(), "hardware_threads": ...}. Returns false
/// if the file cannot be opened.
bool write_chrome_trace(const std::string& path);

}  // namespace ffw::obs
