#include "service/service.hpp"

#include <limits>
#include <utility>

#include "common/timer.hpp"
#include "dbim/continuation.hpp"
#include "obs/obs.hpp"

namespace ffw {

ReconstructionService::ReconstructionService(OperatorTableCache& cache,
                                             const ServiceOptions& opts)
    : cache_(cache), opts_(opts) {
  FFW_CHECK(opts_.max_active_jobs >= 1);
}

int ReconstructionService::submit(JobSpec spec) {
  for (std::size_t b = 0; b < spec.bands.size(); ++b) {
    FFW_CHECK_MSG(spec.bands[b].nx > 0, "ladder job: band nx must be set");
    if (b > 0) {
      FFW_CHECK_MSG(spec.bands[b].nx >= spec.bands[b - 1].nx,
                    "ladder job: bands must run coarse to fine");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(jobs_.size());
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
  job->last_residual = std::numeric_limits<double>::quiet_NaN();
  jobs_.push_back(std::move(job));
  queue_.push_back(id);
  cv_.notify_all();
  return id;
}

bool ReconstructionService::cancel(int job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (job_id < 0 || job_id >= static_cast<int>(jobs_.size())) return false;
  Job& job = *jobs_[static_cast<std::size_t>(job_id)];
  switch (job.state) {
    case JobState::kQueued:
      job.state = JobState::kCancelled;
      std::erase(queue_, job_id);
      cv_.notify_all();
      return true;
    case JobState::kRunning:
      job.cancel_requested = true;
      cv_.notify_all();
      return true;
    default:
      return false;  // already terminal
  }
}

JobStatus ReconstructionService::status(int job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  FFW_CHECK(job_id >= 0 && job_id < static_cast<int>(jobs_.size()));
  const Job& job = *jobs_[static_cast<std::size_t>(job_id)];
  JobStatus s;
  s.state = job.state;
  s.iterations = job.iterations;
  s.steps = job.steps;
  s.compute_seconds = job.compute_seconds;
  s.last_residual = job.last_residual;
  s.error = job.error;
  s.band = job.band;
  return s;
}

const DbimResult& ReconstructionService::result(int job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  FFW_CHECK(job_id >= 0 && job_id < static_cast<int>(jobs_.size()));
  const Job& job = *jobs_[static_cast<std::size_t>(job_id)];
  FFW_CHECK_MSG(job.result.has_value(),
                "job has no result (not completed, or cancelled before its "
                "first step)");
  return *job.result;
}

ServiceStats ReconstructionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.submitted = jobs_.size();
  for (const auto& j : jobs_) {
    switch (j->state) {
      case JobState::kCompleted: ++s.completed; break;
      case JobState::kCancelled: ++s.cancelled; break;
      case JobState::kFailed: ++s.failed; break;
      default: break;
    }
    s.steps += j->steps;
    s.compute_seconds += j->compute_seconds;
  }
  s.pool_restarts = pool_restarts_;
  return s;
}

void ReconstructionService::admit_locked() {
  int active = 0;
  for (const auto& j : jobs_) {
    if (j->state == JobState::kRunning) ++active;
  }
  while (active < opts_.max_active_jobs && !queue_.empty()) {
    // Highest priority first; queue_ is in submission order, so a
    // strict comparison keeps FIFO within a priority class.
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      if (jobs_[static_cast<std::size_t>(queue_[i])]->spec.priority >
          jobs_[static_cast<std::size_t>(queue_[best])]->spec.priority) {
        best = i;
      }
    }
    Job& job = *jobs_[static_cast<std::size_t>(queue_[best])];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    job.state = JobState::kRunning;
    ++active;
  }
}

ReconstructionService::Job* ReconstructionService::pick_least_time_locked() {
  // Fair share: step forward the admitted job which has consumed the
  // least compute time so far (ties resolve to the earliest id).
  Job* pick = nullptr;
  for (const auto& j : jobs_) {
    if (j->state != JobState::kRunning || j->busy) continue;
    if (pick == nullptr || j->compute_seconds < pick->compute_seconds) {
      pick = j.get();
    }
  }
  return pick;
}

bool ReconstructionService::all_terminal_locked() const {
  for (const auto& j : jobs_) {
    if (j->state == JobState::kQueued || j->state == JobState::kRunning) {
      return false;
    }
  }
  return true;
}

void ReconstructionService::build_runtime(Job& job) {
  FFW_TRACE_SPAN("service.build", static_cast<std::int64_t>(job.id));
  // Ladder jobs draw geometry + data from the active band; the runtime
  // is rebuilt per band through the same cache, so rungs shared across
  // tenants are paid once.
  const JobBand* band =
      job.spec.bands.empty()
          ? nullptr
          : &job.spec.bands[static_cast<std::size_t>(job.band)];
  const Grid grid(band != nullptr ? band->nx : job.spec.nx);
  job.tables =
      cache_.mlfma_tables(grid, job.spec.leaf_pixel_side, job.spec.mlfma);
  job.engine = std::make_unique<MlfmaEngine>(job.tables);
  job.trx_tables = cache_.transceiver_tables(
      grid, band != nullptr ? band->transmitters : job.spec.transmitters,
      band != nullptr ? band->receivers : job.spec.receivers);
  DbimOptions opts = job.spec.dbim;
  if (band != nullptr && band->max_iterations > 0)
    opts.max_iterations = band->max_iterations;
  opts.table_cache = &cache_;
  Job* jp = &job;
  // Observer wrappers record per-job progress under the service lock,
  // then invoke the tenant's callback *unlocked* (so a callback may call
  // cancel() without deadlocking). Observers never feed back into the
  // DBIM math, so the trajectory matches an unobserved run exactly.
  auto user_progress = job.spec.dbim.progress;
  opts.progress = [this, jp, user_progress](int iter, double relres) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      jp->last_residual = relres;
    }
    if (user_progress) user_progress(iter, relres);
  };
  auto user_checkpoint = job.spec.dbim.checkpoint;
  opts.checkpoint = [this, jp, user_checkpoint](const DbimCheckpoint& c) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      jp->last_checkpoint = c;
      jp->has_checkpoint = true;
    }
    if (user_checkpoint) user_checkpoint(c);
  };
  const CMatrix& measured =
      band != nullptr ? band->measured : job.spec.measured;
  const ccspan initial = band != nullptr && job.band > 0
                             ? ccspan{job.warm_start}
                             : ccspan{job.spec.initial_contrast};
  job.stepper = std::make_unique<DbimStepper>(*job.engine,
                                              job.trx_tables->trx, measured,
                                              opts, job.spec.forward, initial);
}

void ReconstructionService::release_runtime_locked(Job& job) {
  // Order matters: the stepper references the engine and transceivers.
  job.stepper.reset();
  job.engine.reset();
  job.tables.reset();      // cache may still hold the artifact
  job.trx_tables.reset();
}

void ReconstructionService::worker_loop(Comm& comm) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    admit_locked();
    if (all_terminal_locked()) {
      cv_.notify_all();
      return;
    }
    Job* job = pick_least_time_locked();
    if (job == nullptr) {
      // Everything runnable is busy on other workers (or waiting on an
      // admission slot another worker holds); park until state changes.
      cv_.wait(lock);
      continue;
    }
    job->busy = true;
    const long long tick = tick_++;
    const bool inject = opts_.inject_rank_failure_at_tick >= 0 &&
                        !injected_ && tick >= opts_.inject_rank_failure_at_tick;
    if (inject) injected_ = true;
    lock.unlock();

    Timer timer;
    bool more = true;
    bool failed = false;
    std::string error;
    try {
      if (inject) {
        throw RankFailure(comm.rank(),
                          "injected rank failure (service fault test)");
      }
      if (!job->stepper && !job->cancel_requested) build_runtime(*job);
      if (!job->cancel_requested) {
        FFW_TRACE_SPAN("service.step", static_cast<std::int64_t>(job->id));
        more = job->stepper->step();
      }
    } catch (const CommFailure&) {
      // Pool-level failure: fail this job and release its slot *before*
      // rethrowing, so the surviving workers can drain to completion
      // instead of waiting forever on a busy ghost.
      lock.lock();
      const double dt = timer.seconds();
      job->busy = false;
      job->compute_seconds += dt;
      ++job->steps;
      job->state = JobState::kFailed;
      job->error = "pool rank failure during step";
      release_runtime_locked(*job);
      cv_.notify_all();
      lock.unlock();
      throw;  // poisons the pool; run() recovers and re-enters
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    const double dt = timer.seconds();

    lock.lock();
    job->busy = false;
    job->compute_seconds += dt;
    ++job->steps;
    if (failed) {
      // Job-level crash isolation: only this job fails; its runtime is
      // dropped and every other job proceeds untouched.
      job->state = JobState::kFailed;
      job->error = error;
      release_runtime_locked(*job);
    } else if (job->cancel_requested) {
      job->state = JobState::kCancelled;
      if (job->stepper) {
        job->iterations = job->iterations_base + job->stepper->iteration();
        job->result = job->stepper->result();  // partial image kept
      }
      release_runtime_locked(*job);
    } else {
      job->iterations = job->iterations_base + job->stepper->iteration();
      job->last_residual = job->stepper->last_residual();
      if (!more) {
        const int nbands = static_cast<int>(job->spec.bands.size());
        if (job->band + 1 < nbands) {
          // Ladder hand-off: warm-start the next band from this band's
          // image (same arithmetic as the standalone continuation
          // driver — verbatim for equal-nx rungs) and rebuild the
          // runtime lazily on the next tick. The job stays kRunning and
          // keeps its fair-share position.
          const DbimResult res = job->stepper->result();
          const int prev_nx =
              job->spec.bands[static_cast<std::size_t>(job->band)].nx;
          const int next_nx =
              job->spec.bands[static_cast<std::size_t>(job->band + 1)].nx;
          const Grid gp(prev_nx), gn(next_nx);
          job->warm_start = continuation_warm_start(
              res.contrast, prev_nx, next_nx, gp.k0() * gp.k0(),
              gn.k0() * gn.k0());
          job->iterations_base = job->iterations;
          job->has_checkpoint = false;
          ++job->band;
          release_runtime_locked(*job);
        } else {
          job->state = JobState::kCompleted;
          job->result = job->stepper->result();
          release_runtime_locked(*job);
        }
      }
    }
    cv_.notify_all();
  }
}

void ReconstructionService::run(VCluster& vc) {
  for (;;) {
    try {
      vc.run([this](Comm& comm) { worker_loop(comm); });
      return;
    } catch (const CommFailure&) {
      bool retry = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        retry = pool_restarts_ < opts_.max_pool_restarts;
        if (retry) ++pool_restarts_;
      }
      if (!retry) throw;
      vc.recover();  // clear the poison; remaining jobs drain on re-entry
    }
  }
}

}  // namespace ffw
