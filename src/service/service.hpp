// Multi-tenant reconstruction service: many DBIM jobs over one shared
// rank pool and one shared OperatorTableCache.
//
// The execution model follows the fair-share harness idiom: the pool's
// worker ranks repeatedly *step forward the admitted job that has
// consumed the least compute time so far* (one DbimStepper iteration
// per tick), so a cheap job finishes early instead of queuing behind an
// expensive one, and every tenant makes proportional progress. Jobs are
// admitted from the priority queue (higher priority first, FIFO within
// a priority) whenever fewer than ServiceOptions::max_active_jobs are
// running. Every job is a frequency ladder — a single-frequency job is
// a one-band one — stepped by a LadderStepper (dbim/continuation.hpp),
// which lazily builds each band's runtime — MLFMA engine, transceivers,
// incident panel — through the shared cache, which is where the
// multi-tenant speedup comes from (bench_service measures it).
//
// Crash isolation, two layers:
//  * Job-level: any std::exception escaping a job's step (including a
//    throwing user progress callback) marks that job kFailed and
//    releases its worker; no other job's trajectory changes (steppers
//    are fully job-private, shared artifacts are immutable).
//  * Pool-level: a CommFailure (e.g. an injected RankFailure) fails the
//    job being stepped, releases it so the drain cannot deadlock, and
//    propagates to VCluster::run, which poisons the pool; run() then
//    recover()s the cluster and re-enters the worker loop (up to
//    max_pool_restarts) to finish the remaining jobs. Because steppers
//    never touch the comm layer mid-step, surviving jobs compute
//    results bit-identical to a fault-free run (service_test asserts
//    this).
//
// Observability: every step runs under a "service.step" span tagged
// with the job id; cache amortisation shows up in the table_cache_*
// counters and ServiceStats.
#pragma once

#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbim/continuation.hpp"
#include "dbim/dbim.hpp"
#include "service/table_cache.hpp"
#include "vcluster/comm.hpp"

namespace ffw {

/// One rung of a multi-frequency job: FrequencyBand's stop rule
/// (halvings follows from nx) plus the band's own grid side, geometry
/// and measured panel (independent experiments per operating
/// frequency). Grid sides run coarse to fine in power-of-two steps, each
/// a multiple of 8 and at least 16; submit() refuses any other ladder.
struct JobBand : FrequencyBand {
  int nx = 0;
  std::vector<Vec2> transmitters;
  std::vector<Vec2> receivers;
  CMatrix measured;  // R x T, column t = transmitter t
};

/// One tenant's reconstruction request. The measured panel and geometry
/// are owned by the spec (the service keeps them alive for the job's
/// lifetime); grid/leaf/mlfma describe the operator configuration the
/// cache keys on.
struct JobSpec {
  std::string name;
  int nx = 32;
  int leaf_pixel_side = 8;
  MlfmaParams mlfma;
  std::vector<Vec2> transmitters;
  std::vector<Vec2> receivers;
  CMatrix measured;  // R x T, column t = transmitter t
  DbimOptions dbim;
  BicgstabOptions forward;
  cvec initial_contrast;
  /// Admission priority: higher admits first; FIFO within a priority.
  int priority = 0;
  /// The job's frequency ladder, run by a LadderStepper
  /// (dbim/continuation.hpp) inside the fair-share schedule (one DBIM
  /// iteration per tick, so a ladder never monopolises the pool). Each
  /// band stops on its own rule and warm-starts from the previous band's
  /// image; the job's result is the final band's. Every band's operator
  /// tables go through the shared cache, so concurrent tenants on the
  /// same ladder share them rung by rung. Empty: submit() makes the job
  /// a one-band ladder of the base nx/transmitters/receivers/measured
  /// fields, stopped by dbim.max_iterations and dbim.residual_tol (which
  /// a ladder's bands replace).
  std::vector<JobBand> bands;
};

enum class JobState { kQueued, kRunning, kCompleted, kCancelled, kFailed };

struct JobStatus {
  JobState state = JobState::kQueued;
  int iterations = 0;         // completed DBIM iterations (all bands)
  std::uint64_t steps = 0;    // scheduler ticks consumed
  double compute_seconds = 0.0;
  double last_residual = 0.0;  // NaN until the first iteration reports
  std::string error;           // kFailed: what() of the escaping exception
  /// Multi-frequency jobs: band currently running (or, when terminal,
  /// the band the job ended on). 0 for single-frequency jobs.
  int band = 0;
};

struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::uint64_t steps = 0;
  double compute_seconds = 0.0;
  int pool_restarts = 0;
};

struct ServiceOptions {
  /// Concurrency admission cap: at most this many jobs hold runtime
  /// state (engine + stepper) at once; the rest wait in the queue.
  int max_active_jobs = 4;
  /// Supervisor retries after a pool-level CommFailure; 0 rethrows the
  /// first failure to the caller.
  int max_pool_restarts = 0;
  /// Fault-injection hook for tests: at this global scheduler tick the
  /// stepping worker throws RankFailure (fires once; -1 disables).
  long long inject_rank_failure_at_tick = -1;
};

class ReconstructionService {
 public:
  explicit ReconstructionService(OperatorTableCache& cache,
                                 const ServiceOptions& opts = {});

  /// Enqueues a job; returns its id. Thread-safe; may be called while
  /// run() is draining (the pool picks the job up on the next tick).
  int submit(JobSpec spec);

  /// Requests cancellation: a queued job cancels immediately, a running
  /// job stops after its current step (its partial result is kept).
  /// Returns false if the job is unknown or already terminal.
  bool cancel(int job_id);

  JobStatus status(int job_id) const;

  /// Result of a completed (or cancelled mid-run) job.
  const DbimResult& result(int job_id) const;

  /// Drains the queue over the cluster's rank pool; returns when every
  /// job is terminal. Restarts the pool after CommFailures up to
  /// ServiceOptions::max_pool_restarts (the failing tick's job is
  /// marked kFailed; all other jobs are unaffected).
  void run(VCluster& vc);

  ServiceStats stats() const;

 private:
  struct Job {
    int id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    bool busy = false;              // a worker is stepping/building it
    bool cancel_requested = false;
    std::uint64_t steps = 0;
    int iterations = 0;
    double last_residual = std::numeric_limits<double>::quiet_NaN();
    double compute_seconds = 0.0;
    std::string error;
    int band = 0;  // the ladder's band, copied out after every tick
    // Runtime, built on the job's first tick (released when the job
    // reaches a terminal state; tables stay alive in the cache for the
    // next tenant).
    std::unique_ptr<LadderStepper> ladder;
    std::optional<DbimResult> result;
  };

  void worker_loop(Comm& comm);
  void admit_locked();
  Job* pick_least_time_locked();
  bool all_terminal_locked() const;
  std::unique_ptr<LadderStepper> make_ladder(Job& job);

  OperatorTableCache& cache_;
  ServiceOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<int> queue_;  // submitted, not yet admitted (id order)
  long long tick_ = 0;
  bool injected_ = false;
  int pool_restarts_ = 0;
};

}  // namespace ffw
