#include "dbim/continuation_parallel.hpp"

#include <memory>
#include <utility>

#include "common/timer.hpp"
#include "dbim/parallel_driver.hpp"

namespace ffw {

namespace {

/// Leader-to-rank-0 stage report, packed as doubles: the report's
/// scalars and counts (exact below 2^53), then its residual history.
constexpr std::size_t kReportHeader = 14;

std::vector<double> pack_report(const StageReport& r) {
  const DbimHistory& h = r.history;
  std::vector<double> pack{
      static_cast<double>(r.band), static_cast<double>(r.nx), r.k0,
      static_cast<double>(r.iterations),
      static_cast<double>(static_cast<int>(r.stop)), r.rmse, r.seconds,
      r.setup_seconds, static_cast<double>(h.forward_solves),
      static_cast<double>(h.operator_applications),
      static_cast<double>(h.bicgstab_iterations), h.precond_setup_seconds,
      static_cast<double>(static_cast<int>(h.backend)),
      h.cbs_escalated ? 1.0 : 0.0};
  pack.insert(pack.end(), h.relative_residual.begin(),
              h.relative_residual.end());
  return pack;
}

StageReport unpack_report(const std::vector<double>& p) {
  FFW_CHECK(p.size() >= kReportHeader);
  StageReport r;
  r.band = static_cast<int>(p[0]);
  r.nx = static_cast<int>(p[1]);
  r.k0 = p[2];
  r.iterations = static_cast<int>(p[3]);
  r.stop = static_cast<StageStop>(static_cast<int>(p[4]));
  r.rmse = p[5];
  r.seconds = p[6];
  r.setup_seconds = p[7];
  DbimHistory& h = r.history;
  h.forward_solves = static_cast<std::uint64_t>(p[8]);
  h.operator_applications = static_cast<std::uint64_t>(p[9]);
  h.bicgstab_iterations = static_cast<std::uint64_t>(p[10]);
  h.precond_setup_seconds = p[11];
  h.backend = static_cast<BackendKind>(static_cast<int>(p[12]));
  h.cbs_escalated = p[13] != 0.0;
  h.relative_residual.assign(p.begin() + kReportHeader, p.end());
  return r;
}

}  // namespace

ContinuationResult continuation_reconstruct_parallel(
    VCluster& vc, const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, const BandParallelOptions& options) {
  ladder.validate(config.nx);
  const Grid final_grid(config.nx);
  FFW_CHECK(true_permittivity.size() == final_grid.num_pixels());
  const ContinuationOptions& copt = options.continuation;
  FFW_CHECK_MSG(copt.dbim.resume == nullptr && !copt.dbim.checkpoint,
                "band-parallel continuation: per-scene DBIM hooks are "
                "owned by the ladder");

  const int nbands = static_cast<int>(ladder.bands.size());
  const FreqPartition part = make_freq_partition(
      vc.size(), nbands, options.freq_groups, options.tree_ranks);
  FFW_CHECK_MSG(part.nranks() == vc.size(),
                "band-parallel continuation: partition does not cover the "
                "cluster");

  // Resume state is loaded ONCE, before any rank runs — a fast group
  // could otherwise overwrite the file mid-load. Process-mode workers
  // each load it at entry, before their first band completes (the same
  // relaunch-window assumption dbim_reconstruct_parallel makes).
  int resume_stage = 0;
  int resume_nx = 0;
  cvec resume_contrast;
  if (copt.resume_from_checkpoint && !copt.checkpoint_path.empty()) {
    continuation_checkpoint_load(copt.checkpoint_path, ladder, config.nx,
                                 &resume_stage, &resume_nx, &resume_contrast);
  }

  ContinuationResult out_result;  // assembled on global rank 0
  out_result.first_stage = resume_stage;

  DbimOptions base = copt.dbim;
  if (config.table_cache != nullptr) base.table_cache = config.table_cache;

  const auto rank_program = [&](Comm& comm) {
    const int me = comm.rank();
    const int g = part.group_of(me);
    const BandGroup grp = part.groups[static_cast<std::size_t>(g)];
    const int leader = grp.base;
    const std::vector<int> wranks = part.ranks(g);
    const auto leader_of_band = [&part](int b) {
      return part.groups[static_cast<std::size_t>(part.owner_of_band(b))].base;
    };

    // One LadderStepper walks this group's bands. It warm-starts a band
    // from the previous one when this group ran it (or it is the resumed
    // band); otherwise the previous leader's message re-seeds it. A
    // single-rank group builds the serial band verbatim, so a ladder over
    // 1-rank groups is bit-identical to the serial one (and skips the
    // partitioned engine's far-field-level requirement on very coarse
    // rungs). The window leader saves the stage checkpoint in the step
    // that ends a band, BEFORE the warm-start send below: the next band
    // cannot complete — and overwrite the file — until its warm start
    // arrives, so stage checkpoints stay ordered across concurrently
    // running groups.
    std::shared_ptr<Scenario> scene;  // replaced only once its band ended
    const LadderBandFactory factory = [&](int, const DbimOptions& opts,
                                          ccspan warm_start) {
      LadderBand out;
      out.true_contrast = scene->true_contrast();
      if (wranks.size() == 1) {
        out.stepper = std::make_unique<DbimStepper>(
            scene->engine(), scene->transceivers(), scene->measurements(),
            opts, config.forward, warm_start);
        return out;
      }
      auto pm = std::make_shared<PartitionedMlfma>(scene->engine().tables(),
                                                   grp.tree_ranks);
      out.stepper = std::make_unique<DbimStepper>(
          make_partitioned_workspace(comm, grp.base, grp.illum_groups, *pm,
                                     scene->tree(), scene->transceivers(),
                                     scene->measurements(), opts,
                                     config.forward),
          opts, warm_start);
      out.resources = std::move(pm);
      return out;
    };
    LadderStepper stepper(ladder, config.nx, base, factory,
                          me == leader ? copt.checkpoint_path : std::string{});
    stepper.seed(resume_stage, resume_contrast, resume_nx);
    std::vector<StageReport> own_reports;  // global rank 0's, band order

    for (int s = resume_stage; s < nbands; ++s) {
      if (part.owner_of_band(s) != g) continue;
      Timer stage_timer;

      // ---- Band setup: independent of every earlier band, so it
      // overlaps other groups' reconstructions (the pipeline fill the
      // perfmodel's schedule simulation accounts for). The window leader
      // builds the serial driver's Scenario — the same synthesis calls,
      // so serial and parallel ladders see bit-identical data — and the
      // other window ranks build it over the broadcast measurements.
      auto [band_config, eps] = continuation_band(
          config, true_permittivity, ladder, s, copt.per_stage_noise_seeds);
      CMatrix measured(static_cast<std::size_t>(config.num_receivers),
                       static_cast<std::size_t>(config.num_transmitters));
      if (me == leader) {
        scene = std::make_shared<Scenario>(band_config, std::move(eps));
        measured = scene->measurements();
      }
      comm.group_bcast(cspan{measured.data(), measured.size()}, wranks);
      if (me != leader) {
        scene = std::make_shared<Scenario>(band_config, std::move(eps),
                                           std::move(measured));
      }
      const double setup_seconds = stage_timer.seconds();

      // ---- The previous band's raw result, when another group ran it:
      // the only inter-band dependency.
      if (stepper.band() != s) {
        const int prev_nx =
            ladder.band_nx(static_cast<std::size_t>(s - 1), config.nx);
        cvec prev;
        if (me == leader)
          prev = comm.recv<cplx>(leader_of_band(s - 1), kTagFreqWarm - s);
        prev.resize(Grid(prev_nx).num_pixels());
        comm.group_bcast(cspan{prev}, wranks);
        stepper.seed(s, std::move(prev), prev_nx);
      }
      while (stepper.band() == s && stepper.step()) {
      }

      // ---- Hand-offs (leader only): the warm start to the next band's
      // group; the stage report and the final image to global rank 0,
      // which keeps its own (no self-sends).
      if (me != leader) continue;
      const bool final_band = s == nbands - 1;
      if (!final_band && part.owner_of_band(s + 1) != g) {
        comm.send(leader_of_band(s + 1), kTagFreqWarm - (s + 1),
                  ccspan{stepper.contrast()});
      }
      StageReport rep = stepper.stages().back();
      rep.setup_seconds = setup_seconds;
      rep.seconds = stage_timer.seconds();
      if (me == 0) {
        own_reports.push_back(std::move(rep));
      } else {
        comm.send(0, kTagFreqReport - s,
                  std::span<const double>(pack_report(rep)));
        if (final_band) {
          comm.send(0, kTagFreqFinal, ccspan{stepper.permittivity()});
        }
      }
    }

    // ---- Global rank 0 collects the other leaders' reports and the
    // final image (its own stepper's when it led the last band, or when
    // every band was checkpointed already).
    if (me == 0) {
      auto own = own_reports.begin();
      for (int s = resume_stage; s < nbands; ++s) {
        out_result.stages.push_back(
            leader_of_band(s) == 0
                ? std::move(*own++)
                : unpack_report(comm.recv<double>(leader_of_band(s),
                                                  kTagFreqReport - s)));
      }
      out_result.permittivity =
          resume_stage == nbands || leader_of_band(nbands - 1) == 0
              ? stepper.permittivity()
              : comm.recv<cplx>(leader_of_band(nbands - 1), kTagFreqFinal);
      FFW_CHECK(out_result.permittivity.size() == final_grid.num_pixels());
    }
  };

  vc.run(rank_program);
  return out_result;
}

}  // namespace ffw
