// Forward-solver playground: shine a plane wave on a dielectric
// cylinder, solve the volume integral equation with MLFMA+BiCGStab, and
// dump the total-field magnitude — the classic "shadow and focusing"
// picture. Also prints the per-phase MLFMA time breakdown (the data
// behind the paper's Table III row structure).
//
// Run: ./build/examples/forward_playground [contrast] [radius_lambda]
#include <cstdio>
#include <cstdlib>

#include "forward/forward.hpp"
#include "io/image.hpp"
#include "linalg/kernels.hpp"
#include "phantom/phantom.hpp"

using namespace ffw;

int main(int argc, char** argv) {
  const double contrast = argc > 1 ? std::atof(argv[1]) : 0.05;
  const double radius = argc > 2 ? std::atof(argv[2]) : 2.0;

  Grid grid(128);  // 12.8 x 12.8 wavelengths
  QuadTree tree(grid);
  MlfmaEngine engine(tree);
  ForwardSolver solver(engine);
  solver.set_contrast(contrast_from_permittivity(
      grid, disks(grid, {{Vec2{0.0, 0.0}, radius, cplx{contrast, 0.0}}})));

  // Plane wave incident from the left.
  const std::size_t n = grid.num_pixels();
  cvec incident(n);
  for (int iy = 0; iy < grid.nx(); ++iy) {
    for (int ix = 0; ix < grid.nx(); ++ix) {
      const Vec2 p = grid.pixel_center(ix, iy);
      incident[grid.pixel_index(ix, iy)] =
          cplx{std::cos(grid.k0() * p.x), std::sin(grid.k0() * p.x)};
    }
  }

  cvec field(n, cplx{}), residual(n);
  const bool converged =
      solver.solve(incident, field, 1, 0.0, /*adjoint=*/false);
  solver.apply_system(field, residual, 1);
  const ForwardStats& stats = solver.stats();
  std::printf("cylinder: radius %.1f lambda, permittivity contrast %.3f\n",
              radius, contrast);
  std::printf("BiCGStab: %s, %d iterations, relative residual %.2e, %llu "
              "MLFMA products\n", converged ? "converged" : "not converged",
              static_cast<int>(stats.per_solve_iterations.back()),
              rel_l2_diff(residual, incident),
              static_cast<unsigned long long>(stats.operator_applications));

  write_pgm_magnitude("forward_field.pgm", grid, field);
  std::printf("wrote forward_field.pgm (total-field magnitude)\n");

  const PhaseTimes& times = engine.phase_times();
  std::printf("\nMLFMA phase breakdown over %llu applications:\n",
              static_cast<unsigned long long>(times.applications));
  for (int p = 0; p < static_cast<int>(MlfmaPhase::kCount); ++p) {
    std::printf("  %-24s %6.1f ms (%4.1f%%)\n",
                phase_name(static_cast<MlfmaPhase>(p)),
                1e3 * times.seconds[static_cast<std::size_t>(p)],
                100.0 * times.seconds[static_cast<std::size_t>(p)] /
                    times.total());
  }
  return 0;
}
