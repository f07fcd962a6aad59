#include "dbim/continuation.hpp"

#include <cmath>
#include <memory>

#include "common/timer.hpp"
#include "phantom/resample.hpp"

namespace ffw {

FrequencyLadder FrequencyLadder::geometric(int nstages,
                                           int iterations_per_stage,
                                           int plateau_window,
                                           double plateau_rtol) {
  FFW_CHECK(nstages >= 1);
  FrequencyLadder ladder;
  for (int s = 0; s < nstages; ++s) {
    FrequencyBand band;
    band.halvings = nstages - 1 - s;
    band.max_iterations = iterations_per_stage;
    band.plateau_window = plateau_window;
    band.plateau_rtol = plateau_rtol;
    ladder.bands.push_back(band);
  }
  return ladder;
}

void FrequencyLadder::validate(int final_nx) const {
  FFW_CHECK_MSG(!bands.empty(), "frequency ladder has no bands");
  int prev_halvings = bands.front().halvings;
  for (const FrequencyBand& band : bands) {
    FFW_CHECK(band.halvings >= 0 && band.max_iterations >= 0);
    FFW_CHECK_MSG(band.halvings <= prev_halvings,
                  "ladder bands must run coarse to fine");
    prev_halvings = band.halvings;
    const int nx = final_nx >> band.halvings;
    FFW_CHECK_MSG(nx >= 16 && nx % 8 == 0,
                  "band grid too coarse for the MLFMA tree");
    FFW_CHECK(band.plateau_window >= 0 && band.plateau_rtol >= 0.0);
  }
}

const char* to_string(StageStop stop) {
  switch (stop) {
    case StageStop::kIterations: return "iterations";
    case StageStop::kResidualTol: return "residual_tol";
    case StageStop::kPlateau: return "plateau";
    case StageStop::kDegenerate: return "degenerate";
  }
  return "?";
}

bool continuation_plateau(const std::vector<double>& residuals, int window,
                          double rtol) {
  if (window <= 0 ||
      residuals.size() <= static_cast<std::size_t>(window)) {
    return false;
  }
  const double then = residuals[residuals.size() - 1 -
                               static_cast<std::size_t>(window)];
  return residuals.back() > (1.0 - rtol) * then;
}

cvec continuation_warm_start(ccspan contrast_prev, int prev_nx, int nx,
                             double k2_prev, double k2_next) {
  FFW_CHECK(prev_nx <= nx && prev_nx > 0);
  if (prev_nx == nx) {
    // Same operating frequency: hand the raw contrast over verbatim.
    // Going through delta_eps — (divide by k2, multiply back) — is not
    // bit-exact in floating point and would drift the warm start on
    // every equal-resolution rung.
    return cvec(contrast_prev.begin(), contrast_prev.end());
  }
  cvec eps(contrast_prev.size());
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps[i] = contrast_prev[i] / k2_prev;
  for (int cur = prev_nx; cur < nx; cur *= 2) eps = upsample2(eps, cur);
  for (auto& v : eps) v *= k2_next;
  return eps;
}

StageStop continuation_stop_reason(const std::vector<double>& residuals,
                                   const FrequencyBand& band) {
  if (band.residual_tol > 0.0 && !residuals.empty() &&
      residuals.back() < band.residual_tol) {
    return StageStop::kResidualTol;
  }
  if (continuation_plateau(residuals, band.plateau_window,
                           band.plateau_rtol)) {
    return StageStop::kPlateau;
  }
  if (static_cast<int>(residuals.size()) >= band.max_iterations)
    return StageStop::kIterations;
  return StageStop::kDegenerate;
}

DbimResult continuation_run_band(DbimStepper& stepper,
                                 const FrequencyBand& band) {
  // The plateau test runs after each completed step (the update
  // included), so every driver cuts the band at the identical state.
  std::vector<double> residuals;
  while (!stepper.done()) {
    stepper.step();
    residuals.push_back(stepper.last_residual());
    if (continuation_plateau(residuals, band.plateau_window,
                             band.plateau_rtol)) {
      break;
    }
  }
  return stepper.result();
}

namespace {

/// Fingerprint array guarding stage checkpoints against a resume under
/// a different ladder (which would silently change the trajectory).
cvec ladder_fingerprint(const FrequencyLadder& ladder, int final_nx) {
  cvec fp;
  fp.emplace_back(static_cast<double>(final_nx),
                  static_cast<double>(ladder.bands.size()));
  for (const FrequencyBand& band : ladder.bands) {
    fp.emplace_back(static_cast<double>(band.halvings),
                    static_cast<double>(band.max_iterations));
  }
  return fp;
}

}  // namespace

void continuation_checkpoint_save(const std::string& path,
                                  const FrequencyLadder& ladder, int final_nx,
                                  int completed_stages, int prev_nx,
                                  ccspan contrast) {
  Checkpoint ck;
  ck.put("ladder", ladder_fingerprint(ladder, final_nx));
  ck.put_scalar("stage", static_cast<double>(completed_stages));
  ck.put_scalar("prev_nx", static_cast<double>(prev_nx));
  ck.put("contrast", contrast);
  FFW_CHECK_MSG(ck.save(path), "continuation: stage checkpoint save failed");
}

bool continuation_checkpoint_load(const std::string& path,
                                  const FrequencyLadder& ladder, int final_nx,
                                  int* completed_stages, int* prev_nx,
                                  cvec* contrast) {
  Checkpoint ck;
  if (!ck.load(path)) return false;
  FFW_CHECK_MSG(ck.contains("ladder") && ck.contains("contrast"),
                "continuation: malformed stage checkpoint");
  const cvec fp = ladder_fingerprint(ladder, final_nx);
  const cvec& got = ck.get("ladder");
  FFW_CHECK_MSG(got == fp,
                "continuation: checkpoint was written by a different "
                "frequency ladder");
  *completed_stages = static_cast<int>(ck.get_scalar("stage"));
  *prev_nx = static_cast<int>(ck.get_scalar("prev_nx"));
  *contrast = ck.get("contrast");
  FFW_CHECK(*completed_stages >= 1 &&
            *completed_stages <= static_cast<int>(ladder.bands.size()));
  return true;
}

ContinuationResult continuation_reconstruct(const ScenarioConfig& config,
                                            ccspan true_permittivity,
                                            const FrequencyLadder& ladder,
                                            const ContinuationOptions& options) {
  ladder.validate(config.nx);
  const Grid final_grid(config.nx);
  FFW_CHECK(true_permittivity.size() == final_grid.num_pixels());
  // Per-scene pointers cannot mean anything across a multi-grid ladder
  // — the driver wires per-band engines and checkpoints itself.
  FFW_CHECK_MSG(options.dbim.mixed_engine == nullptr,
                "continuation: set ContinuationOptions::mixed_precision "
                "instead of DbimOptions::mixed_engine");
  FFW_CHECK_MSG(options.dbim.resume == nullptr && !options.dbim.checkpoint,
                "continuation: per-band DBIM resume/checkpoint hooks are "
                "owned by the ladder (use checkpoint_path)");

  ContinuationResult out;
  const int nbands = static_cast<int>(ladder.bands.size());
  cvec contrast_prev;  // raw result of the last completed band
  int prev_nx = 0;
  double k2_prev = 0.0;
  int first = 0;
  if (options.resume_from_checkpoint && !options.checkpoint_path.empty() &&
      continuation_checkpoint_load(options.checkpoint_path, ladder, config.nx,
                                   &first, &prev_nx, &contrast_prev)) {
    k2_prev = Grid(prev_nx).k0() * Grid(prev_nx).k0();
  }
  out.first_stage = first;

  for (int s = first; s < nbands; ++s) {
    const FrequencyBand& band = ladder.bands[s];
    const int nx = config.nx >> band.halvings;

    // Object at this band's frequency: box-filtered truth.
    cvec eps_stage(true_permittivity.begin(), true_permittivity.end());
    for (int h = 0, cur = config.nx; h < band.halvings; ++h, cur /= 2)
      eps_stage = downsample2(eps_stage, cur);

    ScenarioConfig stage_config = config;
    stage_config.nx = nx;
    if (options.per_stage_noise_seeds)
      stage_config.noise_seed = mix_seed(config.noise_seed,
                                         static_cast<std::uint64_t>(s));

    Timer stage_timer;
    Scenario scene(stage_config, eps_stage);
    const double setup_seconds = stage_timer.seconds();
    const Grid& grid = scene.grid();
    const double k2 = grid.k0() * grid.k0();

    cvec guess;
    if (!contrast_prev.empty())
      guess = continuation_warm_start(contrast_prev, prev_nx, nx, k2_prev, k2);

    DbimOptions opts = options.dbim;
    opts.max_iterations = band.max_iterations;
    opts.residual_tol = band.residual_tol;
    if (config.table_cache != nullptr) opts.table_cache = config.table_cache;
    std::unique_ptr<MlfmaEngine> mixed;
    if (options.mixed_precision) {
      MlfmaParams mp = stage_config.mlfma;
      mp.precision = Precision::kMixed;
      mixed = config.table_cache != nullptr
                  ? std::make_unique<MlfmaEngine>(config.table_cache->
                        mlfma_tables(grid, stage_config.leaf_pixel_side, mp))
                  : std::make_unique<MlfmaEngine>(scene.tree(), mp);
      opts.mixed_engine = mixed.get();
    }

    DbimStepper stepper(scene.engine(), scene.transceivers(),
                        scene.measurements(), opts, config.forward, guess);
    DbimResult res = continuation_run_band(stepper, band);

    StageReport rep;
    rep.band = s;
    rep.nx = nx;
    rep.k0 = grid.k0();
    rep.iterations = stepper.iteration();
    rep.stop = continuation_stop_reason(res.history.relative_residual, band);
    rep.rmse = image_rmse(res.contrast, scene.true_contrast());
    rep.history = std::move(res.history);
    rep.setup_seconds = setup_seconds;
    rep.seconds = stage_timer.seconds();
    out.stages.push_back(std::move(rep));

    contrast_prev = std::move(res.contrast);
    prev_nx = nx;
    k2_prev = k2;
    if (!options.checkpoint_path.empty()) {
      continuation_checkpoint_save(options.checkpoint_path, ladder, config.nx,
                                   s + 1, prev_nx, contrast_prev);
    }
    if (options.stop_after_stage == s) {
      out.completed = false;
      break;
    }
  }

  cvec eps(contrast_prev.size());
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps[i] = contrast_prev[i] / k2_prev;
  for (int cur = prev_nx; cur < config.nx; cur *= 2)
    eps = upsample2(eps, cur);
  out.permittivity = std::move(eps);
  return out;
}

}  // namespace ffw
