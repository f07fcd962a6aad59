#include "service/service.hpp"

#include <exception>
#include <utility>

#include "common/timer.hpp"
#include "obs/obs.hpp"

namespace ffw {

namespace {

/// A job's bands as a ladder on the last band's grid; aborts unless each
/// grid is a power-of-two step below it and FrequencyLadder::validate.
FrequencyLadder ladder_of(const std::vector<JobBand>& bands) {
  const int final_nx = bands.back().nx;
  FrequencyLadder ladder;
  for (const JobBand& b : bands) {
    int halvings = 0;
    while (b.nx > 0 && (b.nx << halvings) < final_nx) ++halvings;
    FFW_CHECK_MSG(b.nx > 0 && (b.nx << halvings) == final_nx,
                  "ladder job: band grids must be set and run coarse to "
                  "fine in power-of-two steps");
    ladder.bands.push_back(b);  // the stop rule
    ladder.bands.back().halvings = halvings;
  }
  ladder.validate(final_nx);
  return ladder;
}

/// One band's runtime: the engine and transceivers, from the cache.
struct ServiceBand {
  std::shared_ptr<const TransceiverTables> trx_tables;
  std::unique_ptr<MlfmaEngine> engine;
};

}  // namespace

ReconstructionService::ReconstructionService(OperatorTableCache& cache,
                                             const ServiceOptions& opts)
    : cache_(cache), opts_(opts) {
  FFW_CHECK(opts_.max_active_jobs >= 1);
}

int ReconstructionService::submit(JobSpec spec) {
  if (spec.bands.empty()) {
    JobBand band;
    band.nx = spec.nx;
    band.transmitters = std::move(spec.transmitters);
    band.receivers = std::move(spec.receivers);
    band.measured = std::move(spec.measured);
    band.max_iterations = spec.dbim.max_iterations;
    band.residual_tol = spec.dbim.residual_tol;
    spec.bands.push_back(std::move(band));
  }
  ladder_of(spec.bands);  // refuse a malformed ladder here, not mid-run
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(jobs_.size());
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
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

std::unique_ptr<LadderStepper> ReconstructionService::make_ladder(Job& job) {
  // The tenant's hooks pass through as given (the worker steps
  // unlocked, so a hook may call cancel()). Each band's runtime comes
  // through the shared cache: rungs shared across tenants are paid once.
  DbimOptions opts = job.spec.dbim;
  opts.table_cache = &cache_;
  Job* jp = &job;
  LadderBandFactory factory = [this, jp](int b, const DbimOptions& band_opts,
                                         ccspan warm_start) {
    FFW_TRACE_SPAN("service.build", static_cast<std::int64_t>(jp->id));
    const JobSpec& spec = jp->spec;
    const JobBand& band = spec.bands[static_cast<std::size_t>(b)];
    const Grid grid(band.nx);
    auto rt = std::make_shared<ServiceBand>();
    rt->engine = std::make_unique<MlfmaEngine>(
        cache_.mlfma_tables(grid, spec.leaf_pixel_side, spec.mlfma));
    rt->trx_tables =
        cache_.transceiver_tables(grid, band.transmitters, band.receivers);
    LadderBand out;
    out.stepper = std::make_unique<DbimStepper>(
        *rt->engine, rt->trx_tables->trx, band.measured, band_opts,
        spec.forward, warm_start);
    out.resources = std::move(rt);
    return out;
  };
  auto ladder = std::make_unique<LadderStepper>(
      ladder_of(job.spec.bands), job.spec.bands.back().nx, std::move(opts),
      std::move(factory));
  if (!job.spec.initial_contrast.empty())
    ladder->seed(0, job.spec.initial_contrast, job.spec.bands.front().nx);
  return ladder;
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
    std::optional<std::string> error;  // set: the job failed
    std::exception_ptr pool_failure;
    try {
      if (inject) {
        throw RankFailure(comm.rank(),
                          "injected rank failure (service fault test)");
      }
      if (!job->cancel_requested) {
        if (!job->ladder) job->ladder = make_ladder(*job);
        FFW_TRACE_SPAN("service.step", static_cast<std::int64_t>(job->id));
        more = job->ladder->step();
      }
    } catch (const CommFailure&) {
      // Pool-level failure: fail this job and release its slot *before*
      // rethrowing (below), so the surviving workers can drain to
      // completion instead of waiting forever on a busy ghost.
      error = "pool rank failure during step";
      pool_failure = std::current_exception();
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double dt = timer.seconds();

    lock.lock();
    job->busy = false;
    job->compute_seconds += dt;
    ++job->steps;
    if (error) {
      // Job-level crash isolation: only this job fails; its runtime is
      // dropped and every other job proceeds untouched.
      job->state = JobState::kFailed;
      job->error = *error;
    } else if (job->ladder) {
      // A ladder hands off to its next band inside the tick that ends
      // the band; the job stays kRunning and keeps its fair-share
      // position.
      job->iterations = job->ladder->iterations();
      job->last_residual = job->ladder->last_residual();
      job->band = job->ladder->band();
      if (job->cancel_requested || !more) {
        job->state = job->cancel_requested ? JobState::kCancelled
                                           : JobState::kCompleted;
        job->result = job->ladder->result();  // a cancelled job's is partial
      }
    } else {
      job->state = JobState::kCancelled;  // before its first step
    }
    // A terminal job drops its runtime; the tables stay alive in the
    // cache for the next tenant.
    if (job->state != JobState::kRunning) job->ladder.reset();
    cv_.notify_all();
    // Poisons the pool; run() recovers and re-enters.
    if (pool_failure) std::rethrow_exception(pool_failure);
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
