#include "phantom/setup.hpp"

#include "linalg/kernels.hpp"

namespace ffw {

CMatrix synthesize_measurements(ForwardSolver& solver, const Transceivers& trx,
                                ccspan contrast, double noise_std,
                                std::uint64_t noise_seed) {
  const std::size_t n = contrast.size();
  const std::size_t t_count = static_cast<std::size_t>(trx.num_transmitters());
  const int r_count = trx.num_receivers();
  solver.set_contrast(contrast);
  // O .* phi_t for every transmitter, then one panel projection.
  cvec ophi(n * t_count), phi(n);
  for (std::size_t t = 0; t < t_count; ++t) {
    const ccspan inc = trx.incident_field(static_cast<int>(t));
    copy(inc, phi);  // incident field as the initial guess
    FFW_CHECK_MSG(solver.solve_block(inc, phi, 1).converged,
                  "measurement synthesis forward solve failed");
    diag_mul(contrast, phi, cspan{ophi.data() + t * n, n});
  }
  CMatrix measured(static_cast<std::size_t>(r_count), t_count);
  trx.apply_gr(ophi, cspan{measured.data(), measured.size()}, t_count);
  if (noise_std > 0.0) {
    // Additive complex Gaussian noise scaled to the per-illumination
    // RMS signal level.
    Rng rng(noise_seed);
    for (std::size_t t = 0; t < t_count; ++t) {
      auto col = measured.col(t);
      const double rms =
          nrm2(col) / std::sqrt(static_cast<double>(r_count));
      for (auto& v : col) {
        v += noise_std * rms * 0.70710678118654752 * rng.cnormal();
      }
    }
  }
  return measured;
}

Scenario::Scenario(const ScenarioConfig& config, cvec true_permittivity)
    : Scenario(config, std::move(true_permittivity), CMatrix{}) {
  ForwardSolver solver(*engine_, config.forward);
  measured_ = synthesize_measurements(solver, *trx_, true_contrast_,
                                      config.measurement_noise,
                                      config.noise_seed);
}

Scenario::Scenario(const ScenarioConfig& config, cvec true_permittivity,
                   CMatrix measured)
    : config_(config), grid_(config.nx), measured_(std::move(measured)) {
  FFW_CHECK(true_permittivity.size() == grid_.num_pixels());
  const double radius = config.ring_radius_factor * grid_.domain();
  std::vector<Vec2> tx = ring_positions(config.num_transmitters, radius,
                                        config.tx_angle_begin,
                                        config.tx_angle_end);
  std::vector<Vec2> rx = ring_positions(config.num_receivers, radius,
                                        config.rx_angle_begin,
                                        config.rx_angle_end);
  if (config.table_cache != nullptr) {
    // Shared path: scenes over the same (grid, leaf, mlfma, geometry)
    // configuration reference one immutable table artifact each.
    tables_ = config.table_cache->mlfma_tables(grid_, config.leaf_pixel_side,
                                               config.mlfma);
    engine_ = std::make_unique<MlfmaEngine>(tables_);
    trx_tables_ = config.table_cache->transceiver_tables(grid_, tx, rx);
    trx_ = &trx_tables_->trx;
  } else {
    tree_ = std::make_unique<QuadTree>(grid_, config.leaf_pixel_side);
    engine_ = std::make_unique<MlfmaEngine>(*tree_, config.mlfma);
    trx_owned_ = std::make_unique<Transceivers>(grid_, std::move(tx),
                                                std::move(rx));
    trx_ = trx_owned_.get();
  }
  true_contrast_ = contrast_from_permittivity(grid_, true_permittivity);
}

}  // namespace ffw
