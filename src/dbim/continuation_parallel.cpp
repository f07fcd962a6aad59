#include "dbim/continuation_parallel.hpp"

#include <memory>
#include <utility>

#include "common/timer.hpp"
#include "dbim/parallel_driver.hpp"
#include "phantom/phantom.hpp"
#include "phantom/resample.hpp"
#include "service/table_cache.hpp"

namespace ffw {

namespace {

double k2_of(int nx) {
  const Grid grid(nx);
  return grid.k0() * grid.k0();
}

/// Leader-to-rank-0 stage report, packed as doubles: [rmse,
/// setup_seconds, seconds, nres, residuals...]. Band identity travels
/// in the tag; everything derivable from (residuals, band) — the stop
/// reason, the iteration count — is recomputed at the receiver through
/// the same pure functions the serial driver uses.
std::vector<double> pack_report(double rmse, double setup_seconds,
                                double seconds,
                                const std::vector<double>& residuals) {
  std::vector<double> pack{rmse, setup_seconds, seconds,
                           static_cast<double>(residuals.size())};
  pack.insert(pack.end(), residuals.begin(), residuals.end());
  return pack;
}

StageReport unpack_report(int band, int nx,
                          const std::vector<double>& pack,
                          const FrequencyBand& spec) {
  FFW_CHECK(pack.size() >= 4);
  StageReport rep;
  rep.band = band;
  rep.nx = nx;
  rep.k0 = Grid(nx).k0();
  rep.rmse = pack[0];
  rep.setup_seconds = pack[1];
  rep.seconds = pack[2];
  const std::size_t nres = static_cast<std::size_t>(pack[3]);
  FFW_CHECK(pack.size() == 4 + nres);
  rep.history.relative_residual.assign(pack.begin() + 4, pack.end());
  rep.iterations = static_cast<int>(nres);
  rep.stop = continuation_stop_reason(rep.history.relative_residual, spec);
  return rep;
}

}  // namespace

ContinuationResult continuation_reconstruct_parallel(
    VCluster& vc, const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, const BandParallelOptions& options) {
  ladder.validate(config.nx);
  const Grid final_grid(config.nx);
  FFW_CHECK(true_permittivity.size() == final_grid.num_pixels());
  const ContinuationOptions& copt = options.continuation;
  FFW_CHECK_MSG(!copt.mixed_precision,
                "band-parallel continuation runs the fp64 partitioned "
                "engine only");
  FFW_CHECK_MSG(copt.stop_after_stage < 0,
                "stop_after_stage is a serial-driver test hook");
  FFW_CHECK_MSG(copt.dbim.mixed_engine == nullptr &&
                    copt.dbim.resume == nullptr && !copt.dbim.checkpoint,
                "band-parallel continuation: per-scene DBIM pointers are "
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

  // Every band already checkpointed: nothing to run, finish the final
  // image from the saved state (same arithmetic as the serial driver).
  if (resume_stage >= nbands) {
    cvec eps(resume_contrast.size());
    const double k2 = k2_of(resume_nx);
    for (std::size_t i = 0; i < eps.size(); ++i)
      eps[i] = resume_contrast[i] / k2;
    for (int cur = resume_nx; cur < config.nx; cur *= 2)
      eps = upsample2(eps, cur);
    out_result.permittivity = std::move(eps);
    return out_result;
  }

  const auto rank_program = [&](Comm& comm) {
    const int me = comm.rank();
    const int g = part.group_of(me);
    const BandGroup grp = part.groups[static_cast<std::size_t>(g)];
    const int leader = grp.base;
    const std::vector<int> wranks = part.ranks(g);

    // Stage reports this rank produced as a leader (rank 0 keeps its
    // own out of the message stream — no self-sends).
    std::vector<std::pair<int, std::vector<double>>> local_reports;
    cvec local_final;  // final-band image when this rank is its leader

    // Result of the last band THIS group ran (the stepper hands it to
    // every window rank): same-group warm starts need no message at
    // all.
    cvec last_contrast;
    int last_band = -1;

    for (int s = resume_stage; s < nbands; ++s) {
      if (part.owner_of_band(s) != g) continue;
      const FrequencyBand& band = ladder.bands[s];
      const int nx = config.nx >> band.halvings;
      const Grid grid(nx);
      const double k2 = grid.k0() * grid.k0();
      Timer stage_timer;

      // ---- Band setup: independent of every earlier band, so it
      // overlaps other groups' reconstructions (the pipeline fill the
      // perfmodel's schedule simulation accounts for).
      cvec eps_stage(true_permittivity.begin(), true_permittivity.end());
      for (int h = 0, cur = config.nx; h < band.halvings; ++h, cur /= 2)
        eps_stage = downsample2(eps_stage, cur);
      const cvec true_contrast = contrast_from_permittivity(grid, eps_stage);

      const double radius = config.ring_radius_factor * grid.domain();
      std::vector<Vec2> tx =
          ring_positions(config.num_transmitters, radius,
                         config.tx_angle_begin, config.tx_angle_end);
      std::vector<Vec2> rx =
          ring_positions(config.num_receivers, radius, config.rx_angle_begin,
                         config.rx_angle_end);

      std::shared_ptr<const OperatorTables> tables;
      std::shared_ptr<const TransceiverTables> trx_tables;
      std::unique_ptr<QuadTree> tree_owned;
      std::unique_ptr<Transceivers> trx_owned;
      const QuadTree* tree = nullptr;
      const Transceivers* trx = nullptr;
      if (config.table_cache != nullptr) {
        tables = config.table_cache->mlfma_tables(
            grid, config.leaf_pixel_side, config.mlfma);
        tree = &tables->tree();
        trx_tables = config.table_cache->transceiver_tables(grid, tx, rx);
        trx = &trx_tables->trx;
      } else {
        tree_owned = std::make_unique<QuadTree>(grid, config.leaf_pixel_side);
        tree = tree_owned.get();
        trx_owned = std::make_unique<Transceivers>(grid, std::move(tx),
                                                   std::move(rx));
        trx = trx_owned.get();
      }
      // Measurements: the window leader runs the exact serial synthesis
      // path (one engine, one sequential noise stream per band — same
      // calls the Scenario constructor makes, so serial and parallel
      // ladders see bit-identical data), then broadcasts over the
      // window.
      const std::uint64_t seed =
          copt.per_stage_noise_seeds
              ? mix_seed(config.noise_seed, static_cast<std::uint64_t>(s))
              : config.noise_seed;
      CMatrix measured(static_cast<std::size_t>(config.num_receivers),
                       static_cast<std::size_t>(config.num_transmitters));
      if (me == leader) {
        MlfmaEngine engine = tables != nullptr
                                 ? MlfmaEngine(tables)
                                 : MlfmaEngine(*tree, config.mlfma);
        ForwardSolver solver(engine, config.forward);
        measured = synthesize_measurements(solver, *trx, true_contrast,
                                           config.measurement_noise, seed);
      }
      comm.group_bcast(cspan{measured.data(), measured.size()}, wranks);
      const double setup_seconds = stage_timer.seconds();

      // ---- Warm start: the only inter-band dependency.
      cvec guess;
      if (s == resume_stage && resume_stage > 0) {
        guess = continuation_warm_start(resume_contrast, resume_nx, nx,
                                        k2_of(resume_nx), k2);
      } else if (s > 0) {
        const int prev_nx = config.nx >> ladder.bands[s - 1].halvings;
        if (part.owner_of_band(s - 1) == g) {
          FFW_CHECK(last_band == s - 1);
          guess = continuation_warm_start(last_contrast, prev_nx, nx,
                                          k2_of(prev_nx), k2);
        } else {
          if (me == leader) {
            const int prev_leader =
                part.groups[static_cast<std::size_t>(
                                part.owner_of_band(s - 1))].base;
            const cvec prev =
                comm.recv<cplx>(prev_leader, kTagFreqWarm - s);
            guess = continuation_warm_start(prev, prev_nx, nx,
                                            k2_of(prev_nx), k2);
          }
          guess.resize(grid.num_pixels());
          comm.group_bcast(cspan{guess}, wranks);
        }
      }

      // ---- The band's DBIM over this group's window: the serial band
      // loop over a stepper. A single-rank group runs the serial stage
      // verbatim — same engine, workspace and stepper as
      // continuation_reconstruct — so a band-parallel ladder over 1-rank
      // groups is bit-identical to the serial ladder (this also
      // sidesteps the partitioned engine's far-field-level requirement
      // on very coarse rungs). A multi-rank group runs the same stepper
      // over its illum_groups x tree_ranks window.
      DbimOptions opts = copt.dbim;
      opts.max_iterations = band.max_iterations;
      opts.residual_tol = band.residual_tol;
      if (config.table_cache != nullptr) opts.table_cache = config.table_cache;
      std::unique_ptr<MlfmaEngine> engine;
      std::unique_ptr<PartitionedMlfma> pm;
      std::unique_ptr<DbimStepper> stepper;
      if (wranks.size() == 1) {
        engine = tables != nullptr
                     ? std::make_unique<MlfmaEngine>(tables)
                     : std::make_unique<MlfmaEngine>(*tree, config.mlfma);
        stepper = std::make_unique<DbimStepper>(*engine, *trx, measured, opts,
                                                config.forward, guess);
      } else {
        pm = tables != nullptr
                 ? std::make_unique<PartitionedMlfma>(tables, grp.tree_ranks)
                 : std::make_unique<PartitionedMlfma>(*tree, config.mlfma,
                                                      grp.tree_ranks);
        stepper = std::make_unique<DbimStepper>(
            make_partitioned_workspace(comm, grp.base, grp.illum_groups, *pm,
                                       *tree, *trx, measured, opts,
                                       config.forward),
            opts, config.forward, guess);
      }
      DbimResult res = continuation_run_band(*stepper, band);

      // ---- Hand-offs (leader only). Checkpoint BEFORE the warm-start
      // send: the next band cannot complete — and overwrite the file —
      // until its warm start arrives, so stage checkpoints are strictly
      // ordered even across concurrently-running groups.
      if (me == leader) {
        if (!copt.checkpoint_path.empty()) {
          continuation_checkpoint_save(copt.checkpoint_path, ladder,
                                       config.nx, s + 1, nx, res.contrast);
        }
        if (s + 1 < nbands && part.owner_of_band(s + 1) != g) {
          const int next_leader =
              part.groups[static_cast<std::size_t>(
                              part.owner_of_band(s + 1))].base;
          comm.send(next_leader, kTagFreqWarm - (s + 1), ccspan{res.contrast});
        }
        const double rmse = image_rmse(res.contrast, true_contrast);
        std::vector<double> pack =
            pack_report(rmse, setup_seconds, stage_timer.seconds(),
                        res.history.relative_residual);
        if (me == 0) {
          local_reports.emplace_back(s, std::move(pack));
        } else {
          comm.send(0, kTagFreqReport - s, std::span<const double>(pack));
        }
        if (s == nbands - 1) {
          cvec eps(res.contrast.size());
          for (std::size_t i = 0; i < eps.size(); ++i)
            eps[i] = res.contrast[i] / k2;
          for (int cur = nx; cur < config.nx; cur *= 2)
            eps = upsample2(eps, cur);
          if (me == 0) {
            local_final = std::move(eps);
          } else {
            comm.send(0, kTagFreqFinal, ccspan{eps});
          }
        }
      }

      last_contrast = std::move(res.contrast);
      last_band = s;
    }

    // ---- Global rank 0 assembles the result in band order.
    if (me == 0) {
      std::size_t local_at = 0;
      for (int s = resume_stage; s < nbands; ++s) {
        const int owner_leader =
            part.groups[static_cast<std::size_t>(part.owner_of_band(s))].base;
        std::vector<double> pack;
        if (owner_leader == 0) {
          FFW_CHECK(local_at < local_reports.size() &&
                    local_reports[local_at].first == s);
          pack = std::move(local_reports[local_at++].second);
        } else {
          pack = comm.recv<double>(owner_leader, kTagFreqReport - s);
        }
        out_result.stages.push_back(unpack_report(
            s, config.nx >> ladder.bands[static_cast<std::size_t>(s)].halvings,
            pack, ladder.bands[static_cast<std::size_t>(s)]));
      }
      const int last_leader =
          part.groups[static_cast<std::size_t>(
                          part.owner_of_band(nbands - 1))].base;
      if (last_leader == 0) {
        out_result.permittivity = std::move(local_final);
      } else {
        out_result.permittivity = comm.recv<cplx>(last_leader, kTagFreqFinal);
      }
      FFW_CHECK(out_result.permittivity.size() == final_grid.num_pixels());
    }
  };

  vc.run(rank_program);
  return out_result;
}

}  // namespace ffw
