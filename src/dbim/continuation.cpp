#include "dbim/continuation.hpp"

#include <cmath>
#include <limits>
#include <utility>

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

namespace {

double k2_of(int nx) {
  const Grid grid(nx);
  return grid.k0() * grid.k0();
}

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

LadderStepper::LadderStepper(FrequencyLadder ladder, int final_nx,
                             DbimOptions base, LadderBandFactory factory,
                             std::string checkpoint_path)
    : ladder_(std::move(ladder)),
      final_nx_(final_nx),
      base_(std::move(base)),
      factory_(std::move(factory)),
      checkpoint_path_(std::move(checkpoint_path)),
      last_residual_(std::numeric_limits<double>::quiet_NaN()) {}

void LadderStepper::seed(int first, cvec contrast, int nx) {
  FFW_CHECK(!run_ && first >= 0 &&
            first <= static_cast<int>(ladder_.bands.size()));
  band_ = first;
  last_.contrast = std::move(contrast);
  last_nx_ = nx;
}

int LadderStepper::iterations() const {
  int n = run_ ? run_->stepper->iteration() : 0;
  for (const StageReport& rep : stages_) n += rep.iterations;
  return n;
}

bool LadderStepper::step() {
  if (done()) return false;
  const FrequencyBand& band = ladder_.bands[static_cast<std::size_t>(band_)];
  const int nx = ladder_.band_nx(static_cast<std::size_t>(band_), final_nx_);
  if (!run_) {
    band_timer_.reset();
    DbimOptions opts = base_;
    opts.max_iterations = band.max_iterations;
    opts.residual_tol = band.residual_tol;
    const cvec warm = last_.contrast.empty()
                          ? cvec{}
                          : continuation_warm_start(last_.contrast, last_nx_,
                                                    nx, k2_of(last_nx_),
                                                    k2_of(nx));
    run_ = factory_(band_, opts, warm);
    setup_seconds_ = band_timer_.seconds();
  }
  DbimStepper& stepper = *run_->stepper;
  if (!stepper.done()) {
    stepper.step();
    last_residual_ = stepper.last_residual();
  }
  // The plateau test runs after each completed step (the update
  // included), so every ladder cuts the band at the identical state.
  if (!stepper.done() &&
      !continuation_plateau(stepper.history().relative_residual,
                            band.plateau_window, band.plateau_rtol)) {
    return true;
  }

  // Hand-off: report the band, release its runtime, keep its raw result.
  DbimResult res = stepper.result();
  StageReport rep;
  rep.band = band_;
  rep.nx = nx;
  rep.k0 = Grid(nx).k0();
  rep.iterations = stepper.iteration();
  rep.stop = continuation_stop_reason(res.history.relative_residual, band);
  if (!run_->true_contrast.empty())
    rep.rmse = image_rmse(res.contrast, run_->true_contrast);
  rep.history = res.history;
  rep.setup_seconds = setup_seconds_;
  run_.reset();
  last_ = std::move(res);
  last_nx_ = nx;
  if (!checkpoint_path_.empty()) {
    Checkpoint ck;  // read back by continuation_checkpoint_load
    ck.put("ladder", ladder_fingerprint(ladder_, final_nx_));
    ck.put_scalar("stage", static_cast<double>(band_ + 1));
    ck.put_scalar("prev_nx", static_cast<double>(nx));
    ck.put("contrast", last_.contrast);
    FFW_CHECK_MSG(ck.save(checkpoint_path_),
                  "continuation: stage checkpoint save failed");
  }
  rep.seconds = band_timer_.seconds();
  stages_.push_back(std::move(rep));
  ++band_;
  return !done();
}

cvec LadderStepper::permittivity() const {
  const double k2 = k2_of(last_nx_);
  cvec eps(last_.contrast.size());
  for (std::size_t i = 0; i < eps.size(); ++i) eps[i] = last_.contrast[i] / k2;
  for (int cur = last_nx_; cur < final_nx_; cur *= 2) eps = upsample2(eps, cur);
  return eps;
}

DbimResult LadderStepper::result() {
  if (!run_) return std::move(last_);
  DbimResult partial = run_->stepper->result();
  run_.reset();
  return partial;
}

std::pair<ScenarioConfig, cvec> continuation_band(
    const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, int s, bool per_stage_noise_seeds) {
  const FrequencyBand& band = ladder.bands[static_cast<std::size_t>(s)];
  ScenarioConfig band_config = config;
  band_config.nx = config.nx >> band.halvings;
  if (per_stage_noise_seeds)
    band_config.noise_seed = mix_seed(config.noise_seed,
                                      static_cast<std::uint64_t>(s));
  cvec eps(true_permittivity.begin(), true_permittivity.end());
  for (int cur = config.nx; cur > band_config.nx; cur /= 2)
    eps = downsample2(eps, cur);
  return {band_config, std::move(eps)};
}

LadderStepper continuation_ladder(const ScenarioConfig& config,
                                  ccspan true_permittivity,
                                  const FrequencyLadder& ladder,
                                  const ContinuationOptions& options) {
  ladder.validate(config.nx);
  FFW_CHECK(true_permittivity.size() == Grid(config.nx).num_pixels());
  // Per-scene pointers cannot mean anything across a multi-grid ladder
  // — the driver wires per-band engines and checkpoints itself.
  FFW_CHECK_MSG(options.dbim.mixed_engine == nullptr,
                "continuation: set ContinuationOptions::mixed_precision "
                "instead of DbimOptions::mixed_engine");
  FFW_CHECK_MSG(options.dbim.resume == nullptr && !options.dbim.checkpoint,
                "continuation: per-band DBIM resume/checkpoint hooks are "
                "owned by the ladder (use checkpoint_path)");

  struct SerialBand {
    SerialBand(const ScenarioConfig& c, cvec eps) : scene(c, std::move(eps)) {}
    Scenario scene;
    std::unique_ptr<MlfmaEngine> mixed;
  };
  LadderBandFactory factory =
      [config, true_permittivity, ladder,
       mixed_precision = options.mixed_precision,
       seeds = options.per_stage_noise_seeds](
          int s, const DbimOptions& opts, ccspan warm_start) {
        auto [band_config, eps] =
            continuation_band(config, true_permittivity, ladder, s, seeds);
        auto rt = std::make_shared<SerialBand>(band_config, std::move(eps));
        Scenario& scene = rt->scene;
        DbimOptions band_opts = opts;
        if (mixed_precision) {
          MlfmaParams mp = band_config.mlfma;
          mp.precision = Precision::kMixed;
          rt->mixed = config.table_cache != nullptr
                          ? std::make_unique<MlfmaEngine>(
                                config.table_cache->mlfma_tables(
                                    scene.grid(), band_config.leaf_pixel_side,
                                    mp))
                          : std::make_unique<MlfmaEngine>(scene.tree(), mp);
          band_opts.mixed_engine = rt->mixed.get();
        }
        LadderBand out;
        out.stepper = std::make_unique<DbimStepper>(
            scene.engine(), scene.transceivers(), scene.measurements(),
            band_opts, config.forward, warm_start);
        out.true_contrast = scene.true_contrast();
        out.resources = std::move(rt);
        return out;
      };
  DbimOptions base = options.dbim;
  if (config.table_cache != nullptr) base.table_cache = config.table_cache;
  return LadderStepper(ladder, config.nx, std::move(base), std::move(factory),
                       options.checkpoint_path);
}

ContinuationResult continuation_reconstruct(const ScenarioConfig& config,
                                            ccspan true_permittivity,
                                            const FrequencyLadder& ladder,
                                            const ContinuationOptions& options) {
  LadderStepper stepper =
      continuation_ladder(config, true_permittivity, ladder, options);
  ContinuationResult out;
  int prev_nx = 0;
  cvec contrast_prev;  // stays empty (a cold start) unless resumed
  if (options.resume_from_checkpoint && !options.checkpoint_path.empty()) {
    continuation_checkpoint_load(options.checkpoint_path, ladder, config.nx,
                                 &out.first_stage, &prev_nx, &contrast_prev);
  }
  stepper.seed(out.first_stage, std::move(contrast_prev), prev_nx);
  while (stepper.step()) {
  }
  out.stages = stepper.stages();
  out.permittivity = stepper.permittivity();
  return out;
}

}  // namespace ffw
