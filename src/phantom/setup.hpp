// Experiment scenario assembly: imaging geometry + synthetic
// measurements (paper Fig. 3 / Fig. 4 inputs).
//
// The paper's measured field phi^mea comes from physical receivers; we
// synthesise it by running the forward solver on the *true* phantom
// (the standard inverse-crime-aware practice: the synthesis can use a
// different accuracy / solver path than the reconstruction, and optional
// additive noise).
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "linalg/cmatrix.hpp"
#include "phantom/phantom.hpp"
#include "service/table_cache.hpp"

namespace ffw {

struct ScenarioConfig {
  int nx = 64;                   // pixels per side (multiple of 8, /8 pow2)
  int leaf_pixel_side = 8;       // MLFMA leaf size (QuadTree constraint)
  int num_transmitters = 16;
  int num_receivers = 32;
  double ring_radius_factor = 1.0;  // ring radius = factor * D
  // Arc limits for limited-angle studies (paper Fig. 2); full ring by
  // default.
  double tx_angle_begin = 0.0, tx_angle_end = 2.0 * pi;
  double rx_angle_begin = 0.0, rx_angle_end = 2.0 * pi;
  MlfmaParams mlfma;             // reconstruction-side accuracy
  BicgstabOptions forward;       // paper: tol 1e-4
  double measurement_noise = 0.0;  // additive Gaussian noise std (relative)
  std::uint64_t noise_seed = 42;
  /// Shared operator-table cache (borrowed, may be null). When set, the
  /// scenario obtains its MLFMA tables and transceiver operators from
  /// the cache — scenes sharing a configuration share one artifact.
  OperatorTableCache* table_cache = nullptr;
};

/// A ready-to-reconstruct scene: geometry, operators, true object, and
/// the synthetic measured scattered field (R x T).
class Scenario {
 public:
  Scenario(const ScenarioConfig& config, cvec true_permittivity);
  /// The same scene over measurements synthesised elsewhere (no solves).
  Scenario(const ScenarioConfig& config, cvec true_permittivity,
           CMatrix measured);

  const Grid& grid() const { return grid_; }
  const QuadTree& tree() const { return engine_->tree(); }
  MlfmaEngine& engine() { return *engine_; }
  const Transceivers& transceivers() const { return *trx_; }
  const ScenarioConfig& config() const { return config_; }

  /// Shared MLFMA tables (null when built without a cache).
  const std::shared_ptr<const OperatorTables>& tables() const {
    return tables_;
  }
  /// True contrast O = k0^2 * delta_eps (natural order).
  ccspan true_contrast() const { return true_contrast_; }

  /// Measured scattered field, column t = receivers' data for
  /// transmitter t.
  const CMatrix& measurements() const { return measured_; }

 private:
  ScenarioConfig config_;
  Grid grid_;
  // Cached path: shared artifacts. Private path: owned tree + trx.
  std::shared_ptr<const OperatorTables> tables_;
  std::shared_ptr<const TransceiverTables> trx_tables_;
  std::unique_ptr<QuadTree> tree_;
  std::unique_ptr<MlfmaEngine> engine_;
  std::unique_ptr<Transceivers> trx_owned_;
  const Transceivers* trx_ = nullptr;
  cvec true_contrast_;
  CMatrix measured_;
};

/// Synthesise phi^mea for every transmitter: solve the forward problem
/// on `contrast` and evaluate G_R (O .* phi) at the receivers.
CMatrix synthesize_measurements(ForwardSolver& solver, const Transceivers& trx,
                                ccspan contrast, double noise_std = 0.0,
                                std::uint64_t noise_seed = 42);

}  // namespace ffw
