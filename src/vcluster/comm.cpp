#include "vcluster/comm.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/obs.hpp"

namespace ffw {

std::uint64_t TrafficStats::total_bytes() const {
  std::uint64_t s = 0;
  for (auto b : bytes) s += b;
  return s;
}

std::uint64_t TrafficStats::total_messages() const {
  std::uint64_t s = 0;
  for (auto m : messages) s += m;
  return s;
}

std::uint64_t TrafficStats::max_rank_bytes() const {
  std::uint64_t best = 0;
  for (int r = 0; r < nranks; ++r) {
    std::uint64_t s = 0;
    for (int o = 0; o < nranks; ++o) {
      s += bytes[static_cast<std::size_t>(r) * nranks + o];
      s += bytes[static_cast<std::size_t>(o) * nranks + r];
    }
    best = std::max(best, s);
  }
  return best;
}

// The logical frame header the ledger accounts must be exactly what the
// wire records of the polled transports carry.
static_assert(VCluster::kFrameBytes == kWireHeaderBytes);

VCluster::VCluster(int nranks)
    : VCluster(nranks, make_transport(default_transport_name(), nranks),
               /*local_rank=*/-1) {}

VCluster::VCluster(int nranks, std::shared_ptr<Transport> transport)
    : VCluster(nranks, std::move(transport), /*local_rank=*/-1) {}

VCluster::VCluster(int nranks, std::shared_ptr<Transport> transport,
                   int local_rank)
    : nranks_(nranks), transport_(std::move(transport)),
      local_rank_(local_rank) {
  FFW_CHECK(nranks >= 1);
  FFW_CHECK(transport_ != nullptr && transport_->size() == nranks);
  FFW_CHECK(local_rank >= -1 && local_rank < nranks);
  FFW_CHECK_MSG(local_rank < 0 || !transport_->direct_delivery(),
                "process mode needs a cross-process transport");
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) boxes_.push_back(std::make_unique<Mailbox>());
  bytes_.assign(static_cast<std::size_t>(nranks) * nranks, 0);
  messages_.assign(static_cast<std::size_t>(nranks) * nranks, 0);
  rank_sends_.assign(static_cast<std::size_t>(nranks), 0);
  blocked_.resize(static_cast<std::size_t>(nranks));
  transport_->set_deliver([this](int src, int dst, WireFrame f) {
    deliver(dst, src, f.tag, Frame{f.seq, f.crc, std::move(f.payload)});
  });
}

void VCluster::run(const std::function<void(Comm&)>& rank_main) {
  FFW_CHECK_MSG(!aborted(),
                "VCluster::run after a failed run; call recover() first");
  if (!hosts_all()) {
    // Process mode: this instance hosts exactly one rank; run it on the
    // calling thread. Failure propagation is local — a remote rank's
    // death surfaces through the transport (dead connection) or the
    // deadline, and a supervisor above the process tree (ffw_launch)
    // handles cluster-wide restart.
    obs::set_rank(local_rank_);
    Comm comm(this, local_rank_);
    try {
      rank_main(comm);
    } catch (const ClusterAborted&) {
      std::lock_guard lk(fail_mu_);
      if (!first_failure_) first_failure_ = std::current_exception();
    } catch (const CommFailure&) {
      {
        std::lock_guard lk(fail_mu_);
        if (!first_failure_primary_) {
          first_failure_ = std::current_exception();
          first_failure_primary_ = true;
        }
      }
      poison();
    }
    std::vector<std::thread> pending;
    {
      std::lock_guard lk(delay_mu_);
      pending.swap(delay_threads_);
    }
    for (auto& t : pending) t.join();
    std::exception_ptr failure;
    {
      std::lock_guard lk(fail_mu_);
      failure = first_failure_;
    }
    if (failure) std::rethrow_exception(failure);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &rank_main] {
      // Tag the rank thread for the obs subsystem so spans/counters
      // recorded inside rank_main attribute to this rank (no-op while
      // tracing is disabled).
      obs::set_rank(r);
      Comm comm(this, r);
      try {
        rank_main(comm);
      } catch (const ClusterAborted&) {
        // Secondary: some other rank failed first and poisoned us. Only
        // recorded if no primary failure ever surfaces.
        std::lock_guard lk(fail_mu_);
        if (!first_failure_) first_failure_ = std::current_exception();
      } catch (const CommFailure&) {
        {
          std::lock_guard lk(fail_mu_);
          if (!first_failure_primary_) {
            first_failure_ = std::current_exception();
            first_failure_primary_ = true;
          }
        }
        poison();
      }
      // Anything else (including FFW_CHECK) stays fail-fast: it escapes
      // the rank thread and terminates the process.
    });
  }
  for (auto& t : threads) t.join();
  // Rank threads spawn delayed deliveries but have all joined, so the
  // set below is final; join it so no delivery outlives the run.
  std::vector<std::thread> pending;
  {
    std::lock_guard lk(delay_mu_);
    pending.swap(delay_threads_);
  }
  for (auto& t : pending) t.join();

  std::exception_ptr failure;
  {
    std::lock_guard lk(fail_mu_);
    failure = first_failure_;
  }
  if (failure) std::rethrow_exception(failure);
}

void VCluster::set_send_delay(std::function<int(int, int, int)> delay_us) {
  delay_fn_ = std::move(delay_us);
}

void VCluster::install_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  plan_active_ = plan_.all.any() || !plan_.per_edge.empty() ||
                 !plan_.crashes.empty() || !plan_.stalls.empty();
  crash_fired_.assign(plan_.crashes.size(), false);
  stall_fired_.assign(plan_.stalls.size(), false);
}

FaultStats VCluster::fault_stats() const {
  std::lock_guard lk(fault_mu_);
  return fault_stats_;
}

void VCluster::set_send_hook(
    std::function<void(int rank, std::uint64_t nsend)> hook) {
  send_hook_ = std::move(hook);
}

void VCluster::set_comm_options(CommOptions opts) { opts_ = opts; }

void VCluster::recover() {
  aborted_.store(false, std::memory_order_release);
  {
    std::lock_guard lk(fail_mu_);
    first_failure_ = nullptr;
    first_failure_primary_ = false;
  }
  for (auto& box : boxes_) {
    std::lock_guard lk(box->mu);
    box->q.clear();
  }
  {
    std::lock_guard lk(bar_mu_);
    bar_count_ = 0;
    ++bar_gen_;  // any stale waiter (there are none; threads joined) frees
  }
  {
    // Fresh sequence space for the next run; rank_sends_ and the fired
    // crash/stall flags survive so consumed triggers do not re-fire.
    std::lock_guard lk(stats_mu_);
    edge_seq_.clear();
  }
  {
    std::lock_guard lk(blocked_mu_);
    for (auto& b : blocked_) b = BlockedState{};
  }
  // Polled transports may still hold undelivered bytes of the failed
  // run (rings, parser staging, pending outbound buffers); drop them so
  // the fresh sequence space above meets empty reorder buffers.
  transport_->reset();
}

TrafficStats VCluster::traffic() const {
  std::lock_guard lk(stats_mu_);
  return TrafficStats{nranks_, bytes_, messages_};
}

void VCluster::reset_traffic() {
  std::lock_guard lk(stats_mu_);
  std::fill(bytes_.begin(), bytes_.end(), 0);
  std::fill(messages_.begin(), messages_.end(), 0);
  by_tag_.clear();
  frame_bytes_ = 0;
}

TagTraffic VCluster::tag_traffic(int tag) const {
  std::lock_guard lk(stats_mu_);
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? TagTraffic{} : it->second;
}

std::map<int, TagTraffic> VCluster::traffic_by_tag() const {
  std::lock_guard lk(stats_mu_);
  return by_tag_;
}

std::uint64_t VCluster::frame_overhead_bytes() const {
  std::lock_guard lk(stats_mu_);
  return frame_bytes_;
}

void VCluster::deposit(int src, int dst, int tag,
                       std::vector<unsigned char> bytes) {
  if (plan_active_ || send_hook_) {
    // Crash/stall triggers key off the cumulative per-rank send counter
    // and fire *before* accounting: a crashed send never reaches the
    // wire. The counter and the fired flags survive recover(), so a
    // recovered run resumes counting where the dead rank stopped and a
    // consumed crash cannot re-fire. The send hook sees the same
    // counter, so a test can kill a real process at "send #N" exactly
    // where an injected FaultSpec would have crashed a thread.
    std::uint64_t nsend;
    int stall_us = 0;
    bool crash = false;
    {
      std::lock_guard lk(stats_mu_);
      nsend = ++rank_sends_[static_cast<std::size_t>(src)];
      for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
        if (!crash_fired_[i] && plan_.crashes[i].rank == src &&
            plan_.crashes[i].at_send == nsend) {
          crash_fired_[i] = true;
          crash = true;
        }
      }
      for (std::size_t i = 0; i < plan_.stalls.size(); ++i) {
        if (!stall_fired_[i] && plan_.stalls[i].rank == src &&
            plan_.stalls[i].at_send == nsend) {
          stall_fired_[i] = true;
          stall_us += plan_.stalls[i].duration_us;
        }
      }
    }
    if (send_hook_) send_hook_(src, nsend);
    if (crash) {
      {
        std::lock_guard lk(fault_mu_);
        ++fault_stats_.crashes;
      }
      obs::add(obs::Counter::kFaultsInjected, 1);
      throw RankFailure(src, "injected crash: rank " + std::to_string(src) +
                                 " at send #" + std::to_string(nsend));
    }
    if (stall_us > 0) {
      {
        std::lock_guard lk(fault_mu_);
        ++fault_stats_.stalls;
      }
      obs::add(obs::Counter::kFaultsInjected, 1);
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
  }

  Frame frame;
  frame.crc = crc32(bytes.data(), bytes.size());
  frame.bytes = std::move(bytes);
  {
    // Traffic is accounted at send time — a delivery delay changes when a
    // message is *seen*, never what goes on the wire. The ledger counts
    // payload bytes only; the 12-byte frame header accumulates into
    // frame_bytes_ so framing never perturbs per-tag wire comparisons.
    std::lock_guard lk(stats_mu_);
    const std::size_t e = static_cast<std::size_t>(src) * nranks_ + dst;
    bytes_[e] += frame.bytes.size();
    messages_[e] += 1;
    TagTraffic& tt = by_tag_[tag];
    tt.bytes += frame.bytes.size();
    tt.messages += 1;
    frame_bytes_ += kFrameBytes;
    frame.seq = edge_seq_[{src, dst, tag}]++;
  }

  int extra_delay_us = 0;
  if (plan_active_) {
    switch (fault_decide(plan_, src, dst, tag, frame.seq)) {
      case FaultAction::kNone:
        break;
      case FaultAction::kDrop: {
        std::lock_guard lk(fault_mu_);
        ++fault_stats_.drops;
        obs::add(obs::Counter::kFaultsInjected, 1);
        return;  // accounted, never delivered
      }
      case FaultAction::kDuplicate: {
        {
          std::lock_guard lk(fault_mu_);
          ++fault_stats_.duplicates;
        }
        obs::add(obs::Counter::kFaultsInjected, 1);
        ship(src, dst, tag, frame, true);  // same seq: receiver discards one
        break;
      }
      case FaultAction::kReorder: {
        {
          std::lock_guard lk(fault_mu_);
          ++fault_stats_.reorders;
        }
        obs::add(obs::Counter::kFaultsInjected, 1);
        extra_delay_us = plan_.spec_for(src, dst).reorder_hold_us;
        break;
      }
      case FaultAction::kCorrupt: {
        if (!frame.bytes.empty()) {
          {
            std::lock_guard lk(fault_mu_);
            ++fault_stats_.corruptions;
          }
          obs::add(obs::Counter::kFaultsInjected, 1);
          // Flip after the CRC stamp so the receiver detects it.
          frame.bytes[fault_corrupt_offset(plan_, src, dst, frame.seq,
                                           frame.bytes.size())] ^= 0x01u;
        }
        break;
      }
    }
  }

  const int delay_us =
      (delay_fn_ ? delay_fn_(src, dst, tag) : 0) + extra_delay_us;
  if (delay_us <= 0) {
    ship(src, dst, tag, std::move(frame), true);
    return;
  }
  std::lock_guard lk(delay_mu_);
  delay_threads_.emplace_back(
      [this, src, dst, tag, delay_us, f = std::move(frame)]() mutable {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        ship(src, dst, tag, std::move(f), /*on_rank_thread=*/false);
      });
}

void VCluster::ship(int src, int dst, int tag, Frame frame,
                    bool on_rank_thread) {
  WireFrame wf{tag, frame.seq, frame.crc, std::move(frame.bytes)};
  const SendStatus st =
      transport_->send(src, dst, std::move(wf), opts_.deadline_ms);
  if (st == SendStatus::kOk || !on_rank_thread) return;
  // Failures surface only on the sending rank's thread; a delayed-
  // delivery thread swallows them (the receiver's own dead-peer or
  // deadline check reports the loss).
  if (st == SendStatus::kPeerDead) {
    throw RankFailure(dst, "rank " + std::to_string(dst) +
                               " is dead (connection lost) while rank " +
                               std::to_string(src) + " sent tag " +
                               std::to_string(tag));
  }
  deadline_abort(src, "send");
}

void VCluster::pump(int rank) {
  transport_->drain(rank, [this, rank](int src, WireFrame f) {
    deliver(rank, src, f.tag, Frame{f.seq, f.crc, std::move(f.payload)});
  });
}

void VCluster::deliver(int dst, int src, int tag, Frame frame) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lk(box.mu);
    EdgeQueue& eq = box.q[{src, tag}];
    if (frame.seq < eq.next_commit) return;  // duplicate of a committed frame
    if (frame.seq == eq.next_commit) {
      // In-order arrival: commit, then flush any held successors.
      eq.ready.push_back(std::move(frame));
      ++eq.next_commit;
      auto it = eq.held.begin();
      while (it != eq.held.end() && it->first == eq.next_commit) {
        eq.ready.push_back(std::move(it->second));
        ++eq.next_commit;
        it = eq.held.erase(it);
      }
    } else {
      // Out-of-order: park until the gap fills. try_emplace discards a
      // duplicate of an already-held frame.
      eq.held.try_emplace(frame.seq, std::move(frame));
    }
  }
  box.cv.notify_all();
}

void VCluster::publish_blocked(int rank, BlockedState::Kind kind,
                               std::vector<std::pair<int, int>> keys) {
  std::lock_guard lk(blocked_mu_);
  blocked_[static_cast<std::size_t>(rank)] = {kind, std::move(keys)};
}

void VCluster::clear_blocked(int rank) {
  std::lock_guard lk(blocked_mu_);
  blocked_[static_cast<std::size_t>(rank)] = BlockedState{};
}

std::string VCluster::wait_for_report(int aborting_rank,
                                      const char* waiting_in) {
  using Kind = BlockedState::Kind;
  const auto kind_name = [](Kind k) {
    switch (k) {
      case Kind::kRecv: return "recv";
      case Kind::kWaitAny: return "wait_any";
      case Kind::kBarrier: return "barrier";
      default: return "none";
    }
  };
  std::vector<BlockedState> blocked;
  {
    std::lock_guard lk(blocked_mu_);
    blocked = blocked_;
  }

  std::string out = "[vcluster] deadline exceeded: rank " +
                    std::to_string(aborting_rank) + " blocked in " +
                    waiting_in + " for " + std::to_string(opts_.deadline_ms) +
                    " ms\n";

  // waits_on[r] = set of ranks r cannot progress without.
  std::vector<std::vector<int>> waits_on(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    const BlockedState& b = blocked[static_cast<std::size_t>(r)];
    if (b.kind == Kind::kNone) continue;
    out += "  rank " + std::to_string(r) + ": blocked in " +
           kind_name(b.kind);
    if (b.kind == Kind::kBarrier) {
      for (int o = 0; o < nranks_; ++o) {
        if (o != r && blocked[static_cast<std::size_t>(o)].kind != Kind::kBarrier)
          waits_on[static_cast<std::size_t>(r)].push_back(o);
      }
      out += "\n";
      continue;
    }
    Mailbox& box = *boxes_[static_cast<std::size_t>(r)];
    std::lock_guard lk(box.mu);
    for (const auto& [src, tag] : b.keys) {
      const auto it = box.q.find({src, tag});
      const EdgeQueue* eq = it == box.q.end() ? nullptr : &it->second;
      const std::size_t ready = eq ? eq->ready.size() : 0;
      out += " on (src=" + std::to_string(src) +
             ", tag=" + std::to_string(tag) + ") [ready " +
             std::to_string(ready) + ", held " +
             std::to_string(eq ? eq->held.size() : 0);
      if (eq && !eq->held.empty())
        out += ", seq " + std::to_string(eq->next_commit) + " missing";
      out += "]";
      if (ready == 0) waits_on[static_cast<std::size_t>(r)].push_back(src);
    }
    out += "\n";
  }

  // Walk from the aborting rank following first unsatisfied dependencies;
  // with <= nranks_ hops we either revisit a rank (cycle) or dead-end.
  std::vector<int> path{aborting_rank};
  std::vector<char> on_path(static_cast<std::size_t>(nranks_), 0);
  on_path[static_cast<std::size_t>(aborting_rank)] = 1;
  int cycle_at = -1;
  while (true) {
    const auto& deps = waits_on[static_cast<std::size_t>(path.back())];
    if (deps.empty()) break;
    const int next = deps.front();
    if (on_path[static_cast<std::size_t>(next)]) {
      cycle_at = next;
      path.push_back(next);
      break;
    }
    on_path[static_cast<std::size_t>(next)] = 1;
    path.push_back(next);
  }
  if (cycle_at >= 0) {
    std::size_t first = 0;
    while (path[first] != cycle_at) ++first;
    out += "  wait-for cycle: ";
    for (std::size_t i = first; i < path.size(); ++i) {
      if (i > first) out += " -> ";
      out += "rank " + std::to_string(path[i]);
    }
    out += "\n";
  } else {
    out += "  no wait-for cycle from rank " + std::to_string(aborting_rank) +
           " (waiting on a rank that is not blocked, or on a dropped "
           "message)\n";
  }
  return out;
}

void VCluster::deadline_abort(int rank, const char* waiting_in) {
  const std::string report = wait_for_report(rank, waiting_in);
  std::fputs(report.c_str(), stderr);
  obs::add(obs::Counter::kDeadlineAborts, 1);
  clear_blocked(rank);
  throw DeadlineExceeded(rank, report);
}

void VCluster::poison() {
  aborted_.store(true, std::memory_order_release);
  for (auto& box : boxes_) {
    std::lock_guard lk(box->mu);
    box->cv.notify_all();
  }
  {
    std::lock_guard lk(bar_mu_);
    bar_cv_.notify_all();
  }
  transport_->wake_all();  // unpark ranks sitting in wait_frames
}

void VCluster::throw_cluster_aborted(int rank) const {
  throw ClusterAborted(rank, "cluster aborted: another rank failed first");
}

int Comm::size() const { return owner_->size(); }

namespace {

/// Payloads below this size bypass the pool (cheap to allocate).
constexpr std::size_t kPooledPayloadMin = 4096;
/// Buffers one thread keeps for reuse.
constexpr std::size_t kPayloadPoolSize = 8;

std::vector<std::vector<unsigned char>>& payload_pool() {
  thread_local std::vector<std::vector<unsigned char>> pool;
  return pool;
}

/// A copy of [p, p + n) in the smallest pooled buffer that holds it, or
/// in a new one.
std::vector<unsigned char> pooled_payload(const unsigned char* p,
                                          std::size_t n) {
  auto& pool = payload_pool();
  auto best = pool.end();
  if (n >= kPooledPayloadMin) {
    for (auto it = pool.begin(); it != pool.end(); ++it) {
      if (it->capacity() >= n &&
          (best == pool.end() || it->capacity() < best->capacity()))
        best = it;
    }
  }
  if (best == pool.end()) return std::vector<unsigned char>(p, p + n);
  std::vector<unsigned char> out = std::move(*best);
  pool.erase(best);
  out.assign(p, p + n);
  return out;
}

}  // namespace

void Comm::send_bytes(int dst, int tag, const unsigned char* p,
                      std::size_t n) {
  FFW_CHECK(dst >= 0 && dst < size());
  FFW_CHECK_MSG(dst != rank_, "self-sends are not supported; keep local data local");
  if (owner_->aborted()) owner_->throw_cluster_aborted(rank_);
  // Bridge wire volume into the per-rank obs counters (the per-tag
  // TagTraffic ledger below stays the source of truth for tests).
  obs::add(obs::Counter::kWireBytes, n);
  owner_->deposit(rank_, dst, tag, pooled_payload(p, n));
}

void Comm::recycle(std::vector<unsigned char>&& bytes) {
  if (bytes.capacity() < kPooledPayloadMin) return;
  auto& pool = payload_pool();
  if (pool.size() == kPayloadPoolSize) {
    const auto smallest = std::min_element(
        pool.begin(), pool.end(), [](const auto& a, const auto& b) {
          return a.capacity() < b.capacity();
        });
    if (smallest->capacity() >= bytes.capacity()) return;
    pool.erase(smallest);
  }
  pool.push_back(std::move(bytes));
}

std::vector<unsigned char> Comm::recv_bytes(int src, int tag) {
  FFW_CHECK(src >= 0 && src < size());
  if (!owner_->transport_->direct_delivery())
    return recv_bytes_polled(src, tag);
  VCluster::Mailbox& box = *owner_->boxes_[static_cast<std::size_t>(rank_)];
  const auto key = std::make_pair(src, tag);
  owner_->publish_blocked(rank_, VCluster::BlockedState::Kind::kRecv, {key});
  std::unique_lock lk(box.mu);
  const auto pred = [&] {
    if (owner_->aborted()) return true;
    const auto it = box.q.find(key);
    return it != box.q.end() && !it->second.ready.empty();
  };
  if (owner_->opts_.deadline_ms > 0) {
    const auto dl = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(owner_->opts_.deadline_ms);
    if (!box.cv.wait_until(lk, dl, pred)) {
      lk.unlock();
      owner_->deadline_abort(rank_, "recv");
    }
  } else {
    box.cv.wait(lk, pred);
  }
  owner_->clear_blocked(rank_);
  if (owner_->aborted()) {
    lk.unlock();
    owner_->throw_cluster_aborted(rank_);
  }
  auto it = box.q.find(key);
  VCluster::Frame frame = std::move(it->second.ready.front());
  it->second.ready.pop_front();
  lk.unlock();
  if (crc32(frame.bytes.data(), frame.bytes.size()) != frame.crc) {
    obs::add(obs::Counter::kCrcFailures, 1);
    throw CorruptMessage(
        rank_, "CRC mismatch on message (src=" + std::to_string(src) +
                   ", tag=" + std::to_string(tag) +
                   ", seq=" + std::to_string(frame.seq) + ", " +
                   std::to_string(frame.bytes.size()) + " bytes)");
  }
  return std::move(frame.bytes);
}

namespace {
/// Bounded park interval for polled waits: short enough that aborted /
/// dead-peer / deadline checks stay responsive, long enough that an
/// idle rank costs ~500 syscalls/s, not a spin. Doorbells (futex /
/// poll) end a slice early the moment bytes arrive.
constexpr int kPollSliceUs = 2000;
}  // namespace

std::vector<unsigned char> Comm::recv_bytes_polled(int src, int tag) {
  VCluster::Mailbox& box = *owner_->boxes_[static_cast<std::size_t>(rank_)];
  const auto key = std::make_pair(src, tag);
  owner_->publish_blocked(rank_, VCluster::BlockedState::Kind::kRecv, {key});
  const bool armed = owner_->opts_.deadline_ms > 0;
  const auto dl = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(owner_->opts_.deadline_ms);
  VCluster::Frame frame;
  for (;;) {
    owner_->pump(rank_);
    {
      std::lock_guard lk(box.mu);
      const auto it = box.q.find(key);
      if (it != box.q.end() && !it->second.ready.empty()) {
        frame = std::move(it->second.ready.front());
        it->second.ready.pop_front();
        break;
      }
    }
    if (owner_->aborted()) {
      owner_->clear_blocked(rank_);
      owner_->throw_cluster_aborted(rank_);
    }
    if (owner_->transport_->peer_dead(src)) {
      // The connection is gone: nothing more can arrive on this edge.
      // One final pump covers frames that raced the death; then fail
      // fast instead of burning the whole deadline on a dead socket.
      owner_->pump(rank_);
      std::lock_guard lk(box.mu);
      const auto it = box.q.find(key);
      if (it == box.q.end() || it->second.ready.empty()) {
        owner_->clear_blocked(rank_);
        throw RankFailure(src, "rank " + std::to_string(src) +
                                   " died (connection lost) while rank " +
                                   std::to_string(rank_) +
                                   " waited on (src=" + std::to_string(src) +
                                   ", tag=" + std::to_string(tag) + ")");
      }
      continue;
    }
    if (armed && std::chrono::steady_clock::now() >= dl)
      owner_->deadline_abort(rank_, "recv");
    owner_->transport_->wait_frames(rank_, kPollSliceUs);
  }
  owner_->clear_blocked(rank_);
  if (crc32(frame.bytes.data(), frame.bytes.size()) != frame.crc) {
    obs::add(obs::Counter::kCrcFailures, 1);
    throw CorruptMessage(
        rank_, "CRC mismatch on message (src=" + std::to_string(src) +
                   ", tag=" + std::to_string(tag) +
                   ", seq=" + std::to_string(frame.seq) + ", " +
                   std::to_string(frame.bytes.size()) + " bytes)");
  }
  return std::move(frame.bytes);
}

bool Comm::probe(int src, int tag) {
  if (!owner_->transport_->direct_delivery()) owner_->pump(rank_);
  VCluster::Mailbox& box = *owner_->boxes_[static_cast<std::size_t>(rank_)];
  std::lock_guard lk(box.mu);
  auto it = box.q.find({src, tag});
  return it != box.q.end() && !it->second.ready.empty();
}

std::size_t Comm::wait_any(std::span<const std::pair<int, int>> keys) {
  FFW_CHECK_MSG(!keys.empty(), "wait_any needs at least one (src, tag) key");
  if (!owner_->transport_->direct_delivery()) return wait_any_polled(keys);
  VCluster::Mailbox& box = *owner_->boxes_[static_cast<std::size_t>(rank_)];
  owner_->publish_blocked(rank_, VCluster::BlockedState::Kind::kWaitAny,
                          {keys.begin(), keys.end()});
  std::unique_lock lk(box.mu);
  // Rotate the scan start per call: a fixed start at index 0 services
  // the lowest-index peer first whenever several keys are ready, so
  // under sustained arrivals the high-index peers starve and the
  // overlap schedule degenerates back into a fixed drain order.
  const std::size_t start = wait_any_start_++ % keys.size();
  std::size_t hit = keys.size();
  const auto pred = [&] {
    if (owner_->aborted()) return true;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const std::size_t i = (start + k) % keys.size();
      const auto it = box.q.find(keys[i]);
      if (it != box.q.end() && !it->second.ready.empty()) {
        hit = i;
        return true;
      }
    }
    return false;
  };
  if (owner_->opts_.deadline_ms > 0) {
    const auto dl = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(owner_->opts_.deadline_ms);
    if (!box.cv.wait_until(lk, dl, pred)) {
      lk.unlock();
      owner_->deadline_abort(rank_, "wait_any");
    }
  } else {
    box.cv.wait(lk, pred);
  }
  owner_->clear_blocked(rank_);
  if (owner_->aborted()) {
    lk.unlock();
    owner_->throw_cluster_aborted(rank_);
  }
  return hit;
}

std::size_t Comm::wait_any_polled(std::span<const std::pair<int, int>> keys) {
  VCluster::Mailbox& box = *owner_->boxes_[static_cast<std::size_t>(rank_)];
  owner_->publish_blocked(rank_, VCluster::BlockedState::Kind::kWaitAny,
                          {keys.begin(), keys.end()});
  const bool armed = owner_->opts_.deadline_ms > 0;
  const auto dl = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(owner_->opts_.deadline_ms);
  const std::size_t start = wait_any_start_++ % keys.size();
  const auto scan = [&]() -> std::size_t {
    std::lock_guard lk(box.mu);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const std::size_t i = (start + k) % keys.size();
      const auto it = box.q.find(keys[i]);
      if (it != box.q.end() && !it->second.ready.empty()) return i;
    }
    return keys.size();
  };
  for (;;) {
    owner_->pump(rank_);
    const std::size_t hit = scan();
    if (hit < keys.size()) {
      owner_->clear_blocked(rank_);
      return hit;
    }
    if (owner_->aborted()) {
      owner_->clear_blocked(rank_);
      owner_->throw_cluster_aborted(rank_);
    }
    // Fail fast only when *every* watched edge is dead — while any
    // source lives, one of its frames can still satisfy the wait.
    bool all_dead = true;
    for (const auto& [src, tag] : keys) {
      if (!owner_->transport_->peer_dead(src)) {
        all_dead = false;
        break;
      }
    }
    if (all_dead) {
      owner_->pump(rank_);
      if (const std::size_t late = scan(); late < keys.size()) {
        owner_->clear_blocked(rank_);
        return late;
      }
      owner_->clear_blocked(rank_);
      throw RankFailure(keys.front().first,
                        "every rank rank " + std::to_string(rank_) +
                            " waited on in wait_any is dead "
                            "(connections lost)");
    }
    if (armed && std::chrono::steady_clock::now() >= dl)
      owner_->deadline_abort(rank_, "wait_any");
    owner_->transport_->wait_frames(rank_, kPollSliceUs);
  }
}

void Comm::barrier() {
  if (!owner_->hosts_all()) {
    barrier_messages();
    return;
  }
  owner_->publish_blocked(rank_, VCluster::BlockedState::Kind::kBarrier, {});
  std::unique_lock lk(owner_->bar_mu_);
  const std::uint64_t gen = owner_->bar_gen_;
  if (++owner_->bar_count_ == owner_->size()) {
    owner_->bar_count_ = 0;
    ++owner_->bar_gen_;
    owner_->bar_cv_.notify_all();
  } else {
    const auto pred = [&] {
      return owner_->bar_gen_ != gen || owner_->aborted();
    };
    if (owner_->opts_.deadline_ms > 0) {
      const auto dl = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(owner_->opts_.deadline_ms);
      if (!owner_->bar_cv_.wait_until(lk, dl, pred)) {
        lk.unlock();
        owner_->deadline_abort(rank_, "barrier");
      }
    } else {
      owner_->bar_cv_.wait(lk, pred);
    }
  }
  owner_->clear_blocked(rank_);
  if (owner_->aborted()) {
    if (lk.owns_lock()) lk.unlock();
    owner_->throw_cluster_aborted(rank_);
  }
}

void Comm::barrier_messages() {
  // Dissemination barrier (Hensgen–Finkel–Manber): round k sends a
  // token 2^k ranks ahead and receives one from 2^k behind; after
  // ceil(log2 p) rounds every rank has transitively heard from every
  // other. Runs entirely over tagged point-to-point messages, so it
  // needs no shared barrier state across processes, inherits the polled
  // recv's deadline/dead-peer handling, and its traffic shows up in the
  // ledger like a real MPI barrier's would. Reusing the same tags
  // across consecutive barriers is safe: each barrier consumes exactly
  // one token per (src, tag) edge, and edges commit FIFO.
  constexpr int kTagBarrier = -5000;  // reserved; round k uses -5000 - k
  const int p = size();
  if (p == 1) return;
  const unsigned char token = 1;
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    send_bytes((rank_ + dist) % p, kTagBarrier - round, &token, 1);
    (void)recv_bytes((rank_ + p - dist) % p, kTagBarrier - round);
  }
}

namespace {
constexpr int kTagCollective = -1000;  // reserved tag space for collectives

/// Largest power of two <= n.
int pow2_floor(int n) { return 1 << (std::bit_width(static_cast<unsigned>(n)) - 1); }
}  // namespace

// Recursive-doubling allreduce; ranks beyond the power-of-two prefix fold
// into the prefix first (standard MPI algorithm), so traffic counters
// match a real implementation's volume.
template <typename T>
static void allreduce_sum_impl(Comm& c, std::span<T> inout) {
  const int p = c.size();
  if (p == 1) return;
  const int rank = c.rank();
  const int p2 = pow2_floor(p);
  const int rem = p - p2;

  if (rank >= p2) {  // fold extra ranks into [0, rem)
    c.send(rank - p2, kTagCollective, std::span<const T>(inout));
    c.recv_into(rank - p2, kTagCollective - 1, inout);
    return;
  }
  if (rank < rem) {
    const std::vector<T> other = c.recv<T>(rank + p2, kTagCollective);
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += other[i];
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int peer = rank ^ mask;
    c.send(peer, kTagCollective - 2 - std::countr_zero(static_cast<unsigned>(mask)),
           std::span<const T>(inout));
    const std::vector<T> other = c.recv<T>(
        peer, kTagCollective - 2 - std::countr_zero(static_cast<unsigned>(mask)));
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += other[i];
  }
  if (rank < rem) {
    c.send(rank + p2, kTagCollective - 1, std::span<const T>(inout));
  }
}

void Comm::allreduce_sum(cspan inout) { allreduce_sum_impl(*this, inout); }
void Comm::allreduce_sum(rspan inout) { allreduce_sum_impl(*this, inout); }

double Comm::allreduce_sum(double v) {
  double buf[1] = {v};
  allreduce_sum(rspan{buf, 1});
  return buf[0];
}

double Comm::allreduce_max(double v) {
  // Binomial-tree reduce to rank 0 followed by a binomial broadcast:
  // 2(p-1) messages of 8 bytes total, and rank 0's incident degree is
  // ceil(log2 p) per phase instead of the p-1 of a star gather — the
  // same "traffic counters match a real MPI job" contract every other
  // collective honors.
  const int p = size();
  if (p == 1) return v;
  double best = v;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((rank_ & mask) != 0) {
      // Lowest set bit reached: ship the partial max up the tree once.
      const double out[1] = {best};
      send(rank_ ^ mask, kTagCollective - 50, std::span<const double>(out, 1));
      break;
    }
    const int peer = rank_ | mask;
    if (peer < p)
      best = std::max(best, recv<double>(peer, kTagCollective - 50)[0]);
  }
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rank_ < mask) {
      const int child = rank_ + mask;
      if (child < p) {
        const double out[1] = {best};
        send(child, kTagCollective - 51, std::span<const double>(out, 1));
      }
    } else if (rank_ < 2 * mask) {
      best = recv<double>(rank_ - mask, kTagCollective - 51)[0];
    }
  }
  return best;
}

template <typename T>
static void group_allreduce_impl(Comm& c, std::span<T> inout,
                                 std::span<const int> group) {
  if (group.size() <= 1) return;
  constexpr int kTagGroup = -2000;
  const int me = c.rank();
  const int leader = group[0];
  FFW_DCHECK(std::is_sorted(group.begin(), group.end()));
  if (me == leader) {
    for (std::size_t i = 1; i < group.size(); ++i) {
      const std::vector<T> part = c.recv<T>(group[i], kTagGroup);
      FFW_CHECK(part.size() == inout.size());
      for (std::size_t k = 0; k < inout.size(); ++k) inout[k] += part[k];
    }
    for (std::size_t i = 1; i < group.size(); ++i) {
      c.send(group[i], kTagGroup - 1, std::span<const T>(inout));
    }
  } else {
    c.send(leader, kTagGroup, std::span<const T>(inout));
    c.recv_into(leader, kTagGroup - 1, inout);
  }
}

void Comm::group_allreduce_sum(cspan inout, std::span<const int> group) {
  group_allreduce_impl(*this, inout, group);
}

void Comm::group_allreduce_sum(rspan inout, std::span<const int> group) {
  group_allreduce_impl(*this, inout, group);
}

double Comm::group_allreduce_sum(double v, std::span<const int> group) {
  double buf[1] = {v};
  group_allreduce_sum(rspan{buf, 1}, group);
  return buf[0];
}

template <typename T>
static void group_bcast_impl(Comm& c, std::span<T> data,
                             std::span<const int> group) {
  const int p = static_cast<int>(group.size());
  if (p <= 1) return;
  constexpr int kTagGroupBcast = -2100;
  FFW_DCHECK(std::is_sorted(group.begin(), group.end()));
  const auto it = std::lower_bound(group.begin(), group.end(), c.rank());
  FFW_CHECK_MSG(it != group.end() && *it == c.rank(),
                "group_bcast: calling rank not in group");
  // Binomial tree over group *positions*, rooted at position 0.
  const int vrank = static_cast<int>(it - group.begin());
  int mask = 1;
  while (mask < p) {
    if (vrank < mask) {
      const int child = vrank + mask;
      if (child < p) {
        c.send(group[static_cast<std::size_t>(child)], kTagGroupBcast,
               std::span<const T>(data));
      }
    } else if (vrank < 2 * mask) {
      c.recv_into(group[static_cast<std::size_t>(vrank - mask)],
                  kTagGroupBcast, data);
    }
    mask <<= 1;
  }
}

void Comm::group_bcast(cspan data, std::span<const int> group) {
  group_bcast_impl(*this, data, group);
}

void Comm::group_bcast(rspan data, std::span<const int> group) {
  group_bcast_impl(*this, data, group);
}

void Comm::bcast(cspan data, int root) {
  const int p = size();
  if (p == 1) return;
  // Binomial tree rooted at `root` using relative ranks.
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank < mask) {
      const int child = vrank + mask;
      if (child < p) {
        send((child + root) % p, kTagCollective - 100,
             std::span<const cplx>(data));
      }
    } else if (vrank < 2 * mask) {
      recv_into((vrank - mask + root) % p, kTagCollective - 100, data);
    }
    mask <<= 1;
  }
}

}  // namespace ffw
