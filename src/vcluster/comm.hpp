// Virtual cluster: an in-process message-passing runtime standing in for
// MPI (no MPI is available in this environment; see DESIGN.md Sec. 2).
//
// Each rank runs on its own thread and communicates exclusively through
// this API — matched send/recv with tags, barriers, and collectives
// implemented *on top of* point-to-point messages (recursive doubling)
// so that the traffic accounting reflects what a real MPI job would put
// on the wire. The per-edge byte/message counters feed the performance
// model that reproduces the paper's scaling figures.
//
// Semantics follow the MPI subset the paper needs:
//  * send() is buffered (returns immediately) — the paper's
//    communication/computation overlap (Fig. 8) posts sends early and
//    drains receives late, which this models faithfully.
//  * recv() blocks until a matching (src, tag) message arrives; message
//    order between a fixed (src, dst, tag) triple is FIFO. FIFO holds
//    under arbitrary delivery delays and injected reordering: every
//    message carries a per-edge sequence number stamped at send, and the
//    receiving mailbox commits frames in send order through a reorder
//    buffer (duplicates are discarded by the same mechanism).
//
// Robustness layer (DESIGN.md Sec. 12): payloads are CRC32-framed at
// send and verified at recv; a seeded FaultPlan (vcluster/fault.hpp) can
// deterministically drop/duplicate/reorder/corrupt messages and stall or
// crash ranks; recv/wait_any/barrier accept a deadline that converts a
// silent hang into a DeadlineExceeded failure carrying the cluster
// wait-for graph. Any CommFailure thrown in one rank poisons the
// cluster, unblocks every other rank with ClusterAborted, and is
// rethrown from run() so a supervisor can recover() and retry.
//
// Transports (DESIGN.md Sec. 16): everything above — framing, the
// reorder buffer, fault injection, deadlines, ledgers — is
// backend-agnostic; the actual byte moving is a pluggable Transport
// (vcluster/transport.hpp). Ranks can therefore be threads of this
// process (default, in-process mailbox or shm/tcp loopback for
// testing) or real processes (ffw_launch + vcluster/bootstrap.hpp),
// one rank per process over shared-memory rings or a TCP mesh.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "vcluster/fault.hpp"
#include "vcluster/transport.hpp"

namespace ffw {

struct TrafficStats {
  // bytes[src * nranks + dst], messages likewise.
  int nranks = 0;
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> messages;

  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  /// Max bytes sent+received by any single rank (the scaling bottleneck).
  std::uint64_t max_rank_bytes() const;
};

/// Aggregate traffic of one tag (e.g. one MLFMA level's halo exchange).
/// Lets tests assert that a scheduling change moved *when* messages are
/// drained without changing *what* goes on the wire.
struct TagTraffic {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  bool operator==(const TagTraffic&) const = default;
};

/// Cluster-wide communication options (install via
/// VCluster::set_comm_options while no run() is in flight).
struct CommOptions {
  /// Deadline for every blocking wait (recv, wait_any, barrier) in
  /// milliseconds; 0 disables. On expiry the blocked rank assembles the
  /// cluster wait-for graph from all ranks' published blocked-on state
  /// and pending-queue contents, dumps it to stderr, bumps the obs
  /// kDeadlineAborts counter and throws DeadlineExceeded — a hang
  /// becomes an actionable report naming the cycle.
  int deadline_ms = 0;
};

class VCluster;

/// Per-rank communicator handle, valid only inside VCluster::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Buffered, tagged point-to-point send. Returns immediately.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag,
               reinterpret_cast<const unsigned char*>(data.data()),
               data.size() * sizeof(T));
  }

  /// Blocking receive of a message matching (src, tag).
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<unsigned char> raw = recv_bytes(src, tag);
    FFW_CHECK_MSG(raw.size() % sizeof(T) == 0, "message size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    std::memcpy(out.data(), raw.data(), raw.size());
    recycle(std::move(raw));
    return out;
  }

  /// Blocking receive directly into a caller buffer (size must match).
  template <typename T>
  void recv_into(int src, int tag, std::span<T> out) {
    std::vector<unsigned char> raw = recv_bytes(src, tag);
    FFW_CHECK_MSG(raw.size() == out.size() * sizeof(T),
                  "recv_into size mismatch");
    std::memcpy(out.data(), raw.data(), raw.size());
    recycle(std::move(raw));
  }

  /// True if a matching message is already queued (non-blocking probe;
  /// used to drain communication while computing, Fig. 8 style).
  bool probe(int src, int tag);

  /// Blocks until at least one of the (src, tag) keys has a queued
  /// message and returns the index of a ready key. This is the
  /// arrival-order primitive of the overlapped MLFMA schedule: after all
  /// local work is exhausted, the rank parks here and services whichever
  /// peer message lands next instead of imposing a fixed drain order.
  /// When several keys are ready the scan start rotates round-robin per
  /// call, so under sustained arrivals every key gets serviced instead
  /// of the lowest index starving the rest.
  std::size_t wait_any(std::span<const std::pair<int, int>> keys);

  void barrier();

  /// In-place sum-allreduce over complex vectors (recursive doubling).
  void allreduce_sum(cspan inout);
  void allreduce_sum(rspan inout);
  double allreduce_max(double v);
  double allreduce_sum(double v);

  /// Broadcast from root (binomial tree over point-to-point sends).
  void bcast(cspan data, int root);

  /// Sum-allreduce over a subgroup of ranks (sorted, must contain
  /// rank()). Used by the 2-D DBIM driver: a *tree group* shares one
  /// MLFMA, an *illumination column* combines gradients (paper Fig. 6).
  /// Implemented as gather-to-leader + broadcast over point-to-point
  /// messages so traffic accounting stays faithful.
  void group_allreduce_sum(cspan inout, std::span<const int> group);
  void group_allreduce_sum(rspan inout, std::span<const int> group);
  double group_allreduce_sum(double v, std::span<const int> group);

  /// Broadcast from group[0] over a subgroup of ranks (sorted, must
  /// contain rank()): binomial tree over the group positions, like
  /// bcast but window-scoped. This is the band-group communicator
  /// primitive of the frequency dimension (dbim/continuation_parallel):
  /// concurrent band groups use disjoint rank pairs, so their traffic
  /// cannot collide on the shared (src, tag) message keys.
  void group_bcast(cspan data, std::span<const int> group);
  void group_bcast(rspan data, std::span<const int> group);

 private:
  friend class VCluster;
  Comm(VCluster* owner, int rank) : owner_(owner), rank_(rank) {}

  void send_bytes(int dst, int tag, const unsigned char* p, std::size_t n);
  std::vector<unsigned char> recv_bytes(int src, int tag);
  // Received payload buffers go to the calling thread's pool, which
  // send_bytes on that thread draws from: in the steady state of a halo
  // exchange the buffers cycle between the ranks and a send allocates
  // nothing.
  static void recycle(std::vector<unsigned char>&& bytes);
  // Polled variants for transports without direct delivery: pump the
  // transport, check the mailbox, park in bounded wait_frames slices —
  // re-checking aborted / dead-peer / deadline between slices, so a
  // peer process dying mid-wait fails fast (or fires DeadlineExceeded
  // with the wait-for graph) instead of hanging in a blocking read.
  std::vector<unsigned char> recv_bytes_polled(int src, int tag);
  std::size_t wait_any_polled(std::span<const std::pair<int, int>> keys);
  /// Dissemination barrier over point-to-point messages (process mode,
  /// where ranks share no central barrier state).
  void barrier_messages();

  VCluster* owner_;
  int rank_;
  std::size_t wait_any_start_ = 0;  // round-robin scan rotation
};

class VCluster {
 public:
  /// Threads mode over the default transport: $FFW_TRANSPORT if set
  /// ("inproc" | "shm" | "tcp"), else the in-process mailbox — which is
  /// bit-identical in behavior and byte-identical in ledgers to the
  /// pre-transport VCluster.
  explicit VCluster(int nranks);

  /// Threads mode over an explicit transport (every rank hosted here).
  VCluster(int nranks, std::shared_ptr<Transport> transport);

  /// Process mode: this instance hosts exactly one rank (`local_rank`)
  /// of an `nranks`-wide world; the transport (shm segment or TCP mesh,
  /// shared with the sibling processes) carries everything. run() then
  /// executes rank_main once, on the calling thread.
  VCluster(int nranks, std::shared_ptr<Transport> transport, int local_rank);

  /// Run `rank_main` on every rank (one thread per rank) and join.
  /// Any FFW_CHECK failure in a rank aborts the process (fail-fast).
  /// A CommFailure thrown by a rank (injected crash, CRC mismatch,
  /// deadline expiry) poisons the cluster — every other blocked rank
  /// unwinds with ClusterAborted — and the primary failure is rethrown
  /// here after all rank threads joined. Call recover() before the next
  /// run() after a failure.
  void run(const std::function<void(Comm&)>& rank_main);

  int size() const { return nranks_; }

  /// True when every rank runs as a thread of this process (threads
  /// mode); false when this instance hosts a single rank of a
  /// multi-process world.
  bool hosts_all() const { return local_rank_ < 0; }
  /// The one hosted rank in process mode; -1 in threads mode.
  int local_rank() const { return local_rank_; }

  /// The byte-moving backend under this cluster.
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  /// Traffic observed since construction (or last reset). Counts payload
  /// bytes only; the fixed per-message frame header (sequence number +
  /// CRC32) is accounted separately in frame_overhead_bytes().
  TrafficStats traffic() const;
  void reset_traffic();

  /// Traffic of one tag / all tags (counted at send time, like `traffic`).
  TagTraffic tag_traffic(int tag) const;
  std::map<int, TagTraffic> traffic_by_tag() const;

  /// Total bytes of frame headers (kFrameBytes per message) since
  /// construction or the last reset_traffic(). Kept out of the payload
  /// ledger so per-tag wire volumes stay comparable across runs with and
  /// without the robustness layer.
  std::uint64_t frame_overhead_bytes() const;

  /// Frame header size on the modeled wire: 8-byte per-edge sequence
  /// number + 4-byte CRC32 of the payload.
  static constexpr std::uint64_t kFrameBytes = 12;

  /// Inject an artificial delivery latency: `delay_us(src, dst, tag)` is
  /// evaluated on the sender thread (must be thread-safe) and the message
  /// becomes visible to the receiver only after that many microseconds —
  /// send() still returns immediately, so this models a slow interconnect
  /// without stalling the sender. Delivery order on one (src, dst, tag)
  /// triple stays FIFO even under unequal delays: the receiver's reorder
  /// buffer commits frames in sequence-number order. Pass nullptr to
  /// disable. Only call while no run() is in flight.
  void set_send_delay(std::function<int(int src, int dst, int tag)> delay_us);

  /// Install (or, with a default-constructed plan, remove) a
  /// deterministic fault-injection plan. Only call while no run() is in
  /// flight. Crash/stall entries fire once each, keyed on cumulative
  /// per-rank send counts that survive recover(), so a recovered run
  /// does not replay an already-fired crash.
  void install_fault_plan(FaultPlan plan);

  /// What the injector actually did so far (cumulative, survives
  /// recover()).
  FaultStats fault_stats() const;

  /// Test hook: called on the sending rank's thread after each send is
  /// counted, with the cumulative per-rank send number (the same
  /// counter crash/stall FaultSpecs key off). The process-mode e2e test
  /// uses it to raise SIGKILL at a send count taken from a fault-free
  /// reference run. Only call while no run() is in flight; pass nullptr
  /// to remove.
  void set_send_hook(std::function<void(int rank, std::uint64_t nsend)> hook);

  /// Cluster-wide wait deadlines etc. Only call while no run() is in
  /// flight.
  void set_comm_options(CommOptions opts);

  /// Reset the cluster after a failed run(): clears the poison flag,
  /// drops every undelivered frame and reorder-buffer entry, resets the
  /// per-edge sequence counters and the barrier. Traffic and fault
  /// statistics and the fired-crash bookkeeping are preserved. Only call
  /// while no run() is in flight.
  void recover();

 private:
  friend class Comm;

  /// One framed message as it travels sender -> mailbox: payload plus
  /// the per-edge sequence number and payload CRC32 stamped at deposit.
  struct Frame {
    std::uint64_t seq = 0;
    std::uint32_t crc = 0;
    std::vector<unsigned char> bytes;
  };

  /// Per-(src, tag) receive queue: frames commit to `ready` strictly in
  /// sequence order; out-of-order arrivals park in `held` until the gap
  /// fills. Duplicates (seq already committed or held) are discarded.
  struct EdgeQueue {
    std::uint64_t next_commit = 0;
    std::map<std::uint64_t, Frame> held;
    std::deque<Frame> ready;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    // keyed by (src, tag)
    std::map<std::pair<int, int>, EdgeQueue> q;
  };

  /// Published "what am I blocked on" state, one slot per rank; feeds
  /// the wait-for graph a deadline expiry dumps.
  struct BlockedState {
    enum class Kind { kNone, kRecv, kWaitAny, kBarrier };
    Kind kind = Kind::kNone;
    std::vector<std::pair<int, int>> keys;  // (src, tag) being waited on
  };

  void deposit(int src, int dst, int tag, std::vector<unsigned char> bytes);
  /// Hands one framed message to the transport (or straight to the
  /// destination mailbox for direct-delivery backends). Send failures
  /// only throw on the sending rank's thread, never on a delayed-
  /// delivery thread.
  void ship(int src, int dst, int tag, Frame frame, bool on_rank_thread);
  void deliver(int dst, int src, int tag, Frame frame);
  /// Pulls every frame the transport has for `rank` into its mailbox.
  /// Called only from rank's own thread (polled backends).
  void pump(int rank);

  void publish_blocked(int rank, BlockedState::Kind kind,
                       std::vector<std::pair<int, int>> keys);
  void clear_blocked(int rank);
  /// Formats the cluster wait-for graph (blocked ranks, their keys,
  /// pending-queue state, dependency cycle) as seen by `aborting_rank`.
  std::string wait_for_report(int aborting_rank, const char* waiting_in);
  /// Dumps the wait-for graph and throws DeadlineExceeded.
  [[noreturn]] void deadline_abort(int rank, const char* waiting_in);

  /// Marks the cluster failed and wakes every blocked rank so it can
  /// throw ClusterAborted.
  void poison();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  [[noreturn]] void throw_cluster_aborted(int rank) const;

  int nranks_;
  std::shared_ptr<Transport> transport_;
  int local_rank_ = -1;  // process mode: the one hosted rank
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::function<void(int, std::uint64_t)> send_hook_;

  // Delayed-delivery machinery (test/bench instrumentation).
  std::function<int(int, int, int)> delay_fn_;
  std::mutex delay_mu_;
  std::vector<std::thread> delay_threads_;

  // Central barrier.
  std::mutex bar_mu_;
  std::condition_variable bar_cv_;
  int bar_count_ = 0;
  std::uint64_t bar_gen_ = 0;

  mutable std::mutex stats_mu_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint64_t> messages_;
  std::map<int, TagTraffic> by_tag_;
  std::uint64_t frame_bytes_ = 0;
  // Per-edge send sequence stamps, keyed (src, dst, tag); guarded by
  // stats_mu_ (deposit already holds it for the ledger).
  std::map<std::tuple<int, int, int>, std::uint64_t> edge_seq_;
  // Cumulative sends per rank (crash/stall triggers key off these).
  std::vector<std::uint64_t> rank_sends_;

  // Fault injection (vcluster/fault.hpp).
  FaultPlan plan_;
  bool plan_active_ = false;
  std::vector<bool> crash_fired_;
  std::vector<bool> stall_fired_;
  mutable std::mutex fault_mu_;
  FaultStats fault_stats_;

  // Failure propagation.
  CommOptions opts_;
  std::atomic<bool> aborted_{false};
  std::mutex fail_mu_;
  std::exception_ptr first_failure_;
  bool first_failure_primary_ = false;

  // Blocked-on publication (wait-for graph inputs).
  mutable std::mutex blocked_mu_;
  std::vector<BlockedState> blocked_;
};

}  // namespace ffw
