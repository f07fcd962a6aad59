// Multi-frequency continuation driver (ROADMAP item 3): recursive
// linearization in the spirit of Borges-Gillman-Greengard
// (arXiv:1608.06871). Reconstruct the object at a low operating
// frequency first — where the scattering problem is only mildly
// nonlinear and the DBIM basin of convergence is wide — then use each
// band's image to warm-start the next, higher band, until the final
// resolution is reached. At high contrast, in limited-aperture or noisy
// scenarios, single-frequency DBIM stalls in a local minimum while the
// continuation walks down the ladder (bench_freq_continuation measures
// exactly this).
//
// In our lambda = 1 units a lower frequency is the same physical object
// on a coarser grid (the domain spans fewer wavelengths), so band k
// runs at nx_final / 2^halvings. Measurements are synthesised per band:
// physically, independent experiments at each operating frequency, each
// with its own noise realization (per-band seeds via mix_seed).
//
// Each band stops on its own criterion — residual tolerance, residual
// *plateau* (no meaningful progress over a trailing window; the natural
// criterion for "this band has given all it can at its resolution"), or
// an iteration cap (with the other two off, a band is a plain
// fixed-iteration stage). LadderStepper is the one band loop, shared by
// the serial driver below, the band-parallel driver
// (dbim/continuation_parallel.hpp) and service jobs
// (service/service.hpp). The stage index is checkpointed so a crash
// mid-ladder resumes bit-identically (tests/multifrequency_test.cpp).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/timer.hpp"
#include "dbim/dbim.hpp"
#include "phantom/setup.hpp"

namespace ffw {

/// One rung of the frequency ladder.
struct FrequencyBand {
  /// Grid halvings below the final grid (1 => nx_final/2, i.e. half the
  /// operating frequency). Bands must run coarse to fine
  /// (non-increasing halvings); equal-resolution repeats are allowed
  /// and warm-start bit-exactly (the raw contrast is passed verbatim —
  /// no k2 round trip).
  int halvings = 0;
  int max_iterations = 10;
  /// Absolute relative-residual stop for this band (0 = off).
  double residual_tol = 0.0;
  /// Plateau stop: end the band once the relative residual improved by
  /// less than plateau_rtol (relative) over the last plateau_window
  /// iterations. 0 disables. This is the recommended per-band stopping
  /// rule: a band should hand over as soon as it stops making progress
  /// at its resolution, not burn a fixed iteration budget.
  int plateau_window = 0;
  double plateau_rtol = 0.02;
};

/// The continuation schedule: bands, coarse to fine.
struct FrequencyLadder {
  std::vector<FrequencyBand> bands;

  /// Geometric ladder: `nstages` bands at halvings nstages-1 .. 0, each
  /// with the same iteration budget and plateau rule.
  static FrequencyLadder geometric(int nstages, int iterations_per_stage,
                                   int plateau_window = 0,
                                   double plateau_rtol = 0.02);

  /// Aborts unless the ladder is well-formed for a final grid of
  /// `final_nx` pixels per side: at least one band, coarse-to-fine
  /// order, and every band's grid coarse enough for the MLFMA tree.
  void validate(int final_nx) const;

  /// Band b's grid side on a final grid of `final_nx`.
  int band_nx(std::size_t b, int final_nx) const {
    return final_nx >> bands[b].halvings;
  }
};

/// Why a band stopped.
enum class StageStop {
  kIterations,   // iteration budget exhausted
  kResidualTol,  // band.residual_tol reached
  kPlateau,      // no progress over the trailing window
  kDegenerate,   // CG update degenerated (zero gradient / step)
};
const char* to_string(StageStop stop);

struct StageReport {
  int band = 0;
  int nx = 0;
  double k0 = 0.0;
  /// CG updates (DbimStepper::iteration()): one less than the residual
  /// count when residual_tol stopped the band.
  int iterations = 0;
  StageStop stop = StageStop::kIterations;
  /// Image RMSE vs the (box-filtered) truth on this band's grid.
  double rmse = 0.0;
  double seconds = 0.0;
  double setup_seconds = 0.0;
  DbimHistory history;
};

struct ContinuationOptions {
  /// Base DBIM options threaded into every band. The ladder overrides
  /// only the per-band stopping fields (max_iterations, residual_tol)
  /// and the table cache; everything else — backend
  /// routing (kAuto/CBS), adaptive forcing, regularization, recycling —
  /// applies inside every band exactly as configured. Per-scene
  /// pointers (mixed_engine, resume, checkpoint callback) must be
  /// unset: they cannot mean anything across a multi-grid ladder. Use
  /// `mixed_precision` below for mixed-precision bands.
  DbimOptions dbim;
  /// Build a Precision::kMixed engine per band and run every band's
  /// Krylov solves through mixed-precision iterative refinement.
  bool mixed_precision = false;
  /// Derive each band's measurement-noise seed from
  /// ScenarioConfig::noise_seed and the band index (mix_seed), so the
  /// per-band experiments carry independent noise realizations. False
  /// reproduces the legacy correlated-noise behaviour (one seed across
  /// all bands) for comparison studies only.
  bool per_stage_noise_seeds = true;
  /// When non-empty, the completed-stage state (stage index + raw
  /// contrast) is saved here atomically after every band, and
  /// `resume_from_checkpoint` restarts a crashed ladder at the first
  /// unfinished band — bit-identical to the uninterrupted run.
  std::string checkpoint_path;
  bool resume_from_checkpoint = false;
};

struct ContinuationResult {
  /// Reconstructed delta_eps on the final grid.
  cvec permittivity;
  /// Reports for the bands this call actually ran (a resumed call
  /// reports only the bands it resumed; `first_stage` says where).
  std::vector<StageReport> stages;
  int first_stage = 0;
};

/// True when `residuals` shows less than `rtol` relative improvement
/// over the last `window` entries (the per-band plateau criterion).
bool continuation_plateau(const std::vector<double>& residuals, int window,
                          double rtol);

/// Initial contrast for a band's grid from the previous band's raw
/// result. Equal resolution: the raw contrast verbatim — bit-exact, no
/// (divide by k2, multiply by k2) round trip. Coarser to finer:
/// delta_eps = contrast / k2_prev, bilinear upsample, scale by k2_next.
/// LadderStepper derives every warm start through it.
cvec continuation_warm_start(ccspan contrast_prev, int prev_nx, int nx,
                             double k2_prev, double k2_next);

/// Classifies why a band's DBIM loop ended, from its residual history
/// and stopping parameters — a pure function of the history.
StageStop continuation_stop_reason(const std::vector<double>& residuals,
                                   const FrequencyBand& band);

/// Reads the stage checkpoint a LadderStepper saves atomically after
/// every band: `completed_stages` bands are done with raw result
/// `contrast` on a prev_nx grid, guarded by a ladder fingerprint.
/// Returns false when the file is absent or malformed and aborts when it
/// belongs to a different ladder.
bool continuation_checkpoint_load(const std::string& path,
                                  const FrequencyLadder& ladder, int final_nx,
                                  int* completed_stages, int* prev_nx,
                                  cvec* contrast);

/// Band `s` of a ladder as a scenario: `config` on the band's grid (with
/// per-band seeds, its own noise seed) and the box-filtered truth.
std::pair<ScenarioConfig, cvec> continuation_band(
    const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, int s, bool per_stage_noise_seeds);

/// A band's runtime: its stepper and what the stepper borrows (released
/// after it).
struct LadderBand {
  std::shared_ptr<void> resources;
  std::unique_ptr<DbimStepper> stepper;
  ccspan true_contrast;  // for StageReport::rmse (empty: 0); outlives it
};
/// Builds band `band` under `opts` (the base options with the band's
/// stop rule) from `warm_start` (on the band's grid; empty = cold).
using LadderBandFactory = std::function<LadderBand(
    int band, const DbimOptions& opts, ccspan warm_start)>;

/// The one band loop of every ladder. step() runs one DBIM iteration of
/// the current band, building the band first if needed; the step that
/// ends a band (its stepper is done or its residual plateaus) reports
/// it, saves the stage checkpoint when a path is given (give it to one
/// rank per window) and keeps its raw contrast to warm-start the next.
/// step() returns false once the last band has ended.
class LadderStepper {
 public:
  LadderStepper(FrequencyLadder ladder, int final_nx, DbimOptions base,
                LadderBandFactory factory, std::string checkpoint_path = {});
  /// Goes on at band `first` from the raw contrast of the band before
  /// it, on an nx grid (first == 0: an initial guess). Between bands.
  void seed(int first, cvec contrast, int nx);
  bool step();
  bool done() const { return band_ == static_cast<int>(ladder_.bands.size()); }
  /// Band running or next to run; the last band once done.
  int band() const {
    return std::min(band_, static_cast<int>(ladder_.bands.size()) - 1);
  }
  int iterations() const;  // CG updates over every band run
  double last_residual() const { return last_residual_; }  // NaN at first
  const std::vector<StageReport>& stages() const { return stages_; }
  /// Raw contrast of the last ended band (or the seed), on its grid.
  const cvec& contrast() const { return last_.contrast; }
  /// contrast() as delta-eps on the final grid: / k2, then upsampled.
  cvec permittivity() const;
  /// The running band's partial result (abandoning it), else the last
  /// ended band's. Call once.
  DbimResult result();

 private:
  FrequencyLadder ladder_;
  int final_nx_;
  DbimOptions base_;
  LadderBandFactory factory_;
  std::string checkpoint_path_;
  int band_ = 0;
  std::optional<LadderBand> run_;  // the current band, while it runs
  Timer band_timer_;
  double setup_seconds_ = 0.0;
  DbimResult last_;  // the last ended band's raw result, or the seed
  int last_nx_ = 0;
  double last_residual_;
  std::vector<StageReport> stages_;
};

/// The serial driver's LadderStepper: each band a Scenario and a
/// DbimStepper on this process. `true_permittivity` must outlive it.
LadderStepper continuation_ladder(const ScenarioConfig& config,
                                  ccspan true_permittivity,
                                  const FrequencyLadder& ladder,
                                  const ContinuationOptions& options = {});

/// Runs the ladder coarse-to-fine on this process. `config` describes
/// the final-band scenario (its nx, geometry, tolerances, cache);
/// `true_permittivity` is the object on the final grid, box-filtered to
/// synthesise each band's measurements.
ContinuationResult continuation_reconstruct(
    const ScenarioConfig& config, ccspan true_permittivity,
    const FrequencyLadder& ladder, const ContinuationOptions& options = {});

}  // namespace ffw
