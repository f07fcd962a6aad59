// FFT/MLFMA crossover: sweeps object contrast x grid size and times the
// same multi-RHS forward solve on both backends — the padded-FFT
// operator (forward/cbs.hpp) and MLFMA, both under block BiCGStab — at
// equal solution accuracy. The two engines discretise the same
// Richmond-kernel system, so their converged fields must agree to ~1e-6
// relative and their Krylov iteration counts match; the speedup column
// is the ratio of operator costs. The sweep locates the contrast where
// MLFMA overtakes the FFT backend, if it does. Exits non-zero if an FFT
// solve fails to converge at any swept contrast.
//
// Writes BENCH_cbs_crossover.json (see FFW_BENCH_JSON_DIR).
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dbim/dbim.hpp"
#include "forward/cbs.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "linalg/kernels.hpp"
#include "phantom/phantom.hpp"
#include "phantom/setup.hpp"

using namespace ffw;

namespace {

constexpr std::size_t kNrhs = 8;
constexpr double kTol = 1e-9;
// Timed solves per cell after the warm-up solve: on a shared host one
// cell's best of 2 moved by up to 1.7x between back-to-back runs.
constexpr int kTimedReps = 5;

struct SolveTiming {
  bool converged = false;
  double seconds = 0.0;  // best of the timed repetitions
  double spread = 0.0;   // slowest / best of the timed repetitions
  cvec solution;
};

cvec incident_panel(const Grid& grid) {
  Transceivers trx(grid, ring_positions(kNrhs, grid.domain()),
                   ring_positions(4, grid.domain()));
  const ccspan panel = trx.incident_panel();
  return cvec(panel.begin(), panel.end());
}

template <typename Solve>
SolveTiming time_solve(ccspan rhs, Solve&& solve) {
  SolveTiming out;
  out.solution.assign(rhs.size(), cplx{});
  // First rep warms plan caches and page-faults the workspaces; the
  // reported time is the best cold-start (x = 0) solve after that.
  out.seconds = std::numeric_limits<double>::infinity();
  double slowest = 0.0;
  for (int rep = 0; rep <= kTimedReps; ++rep) {
    std::fill(out.solution.begin(), out.solution.end(), cplx{});
    Timer t;
    const bool ok = solve(out.solution);
    const double s = t.seconds();
    if (!ok) return SolveTiming{};  // diverged: report as such
    if (rep > 0) {
      out.seconds = std::min(out.seconds, s);
      slowest = std::max(slowest, s);
    }
    out.converged = true;
  }
  out.spread = slowest / out.seconds;
  return out;
}

}  // namespace

int main() {
  bench::banner("FFT / MLFMA forward-solve crossover",
                "ROADMAP item 5 (fast weak-scatterer backend); "
                "Lee et al. arXiv:2109.02637");
  Timer total;

  bench::JsonWriter json("BENCH_cbs_crossover");
  json.field("bench", "cbs_crossover");
  json.field("nrhs", static_cast<std::uint64_t>(kNrhs));
  json.field("tol", kTol);

  const std::vector<double> contrasts = {0.01, 0.02, 0.05, 0.1,
                                         0.2,  0.35, 0.5};
  Table t({"nx", "permittivity", "max|O|/k0^2", "FFT ms", "FFT spread",
           "FFT iters", "MLFMA ms", "MLFMA spread", "MLFMA iters", "speedup",
           "mismatch"});

  json.begin_array("sweep");
  double weak_speedup_128 = 0.0;
  bool all_converged = true;
  std::vector<std::pair<int, double>> crossovers;
  for (const int nx : {64, 128}) {
    Grid grid(nx);
    QuadTree tree(grid);
    MlfmaEngine engine(tree);
    BicgstabOptions bopts;
    bopts.tol = kTol;
    ForwardSolver fs(engine, bopts);
    CbsEngine cbs(grid);
    const cvec rhs = incident_panel(grid);

    double prev_eps = 0.0, prev_speedup = 0.0, crossover = 0.0;
    for (const double eps : contrasts) {
      const cvec contrast = contrast_from_permittivity(
          grid, disks(grid, {{Vec2{0, 0}, 2.0, cplx{eps, 0.0}}}));
      fs.set_contrast(contrast);
      cbs.set_contrast(contrast);
      double omax = 0.0;
      for (const cplx& v : contrast) omax = std::max(omax, std::abs(v));
      const double strength = omax / (grid.k0() * grid.k0());

      // Krylov iterations of the slowest column of the last solve.
      auto slowest = [](const ForwardBackend& b) {
        const auto& it = b.stats().per_solve_iterations;
        return static_cast<std::size_t>(
            *std::max_element(it.end() - kNrhs, it.end()));
      };
      std::size_t cbs_iters = 0, mlfma_iters = 0;
      const SolveTiming c = time_solve(rhs, [&](cspan x) {
        const bool ok = cbs.solve(rhs, x, kNrhs, kTol, /*adjoint=*/false);
        cbs_iters = slowest(cbs);
        return ok;
      });
      const SolveTiming m = time_solve(rhs, [&](cspan x) {
        const bool ok = fs.solve(rhs, x, kNrhs, kTol, /*adjoint=*/false);
        mlfma_iters = slowest(fs);
        return ok;
      });
      all_converged = all_converged && c.converged;
      const bool both = c.converged && m.converged;
      const double mismatch =
          both ? rel_l2_diff(c.solution, m.solution)
               : std::numeric_limits<double>::quiet_NaN();
      const double speedup =
          both ? m.seconds / c.seconds
               : (c.converged ? std::numeric_limits<double>::infinity() : 0.0);
      if (nx == 128 && eps == contrasts.front()) weak_speedup_128 = speedup;
      // Crossover: first contrast where MLFMA overtakes the FFT backend,
      // located by log-linear interpolation between the bracketing sweep
      // points. An FFT solve that fails to converge also ends it.
      if (crossover == 0.0 && prev_speedup > 1.0 &&
          (!c.converged || speedup < 1.0)) {
        if (!c.converged || speedup <= 0.0) {
          crossover = prev_eps;
        } else {
          const double f = std::log(prev_speedup) /
                           (std::log(prev_speedup) - std::log(speedup));
          crossover = prev_eps + f * (eps - prev_eps);
        }
      }
      prev_eps = eps;
      prev_speedup = speedup;

      auto ms = [](const SolveTiming& v) {
        return v.converged ? fmt_fixed(v.seconds * 1e3, 2)
                           : std::string("failed");
      };
      auto spread = [](const SolveTiming& v) {
        return v.converged ? fmt_fixed(v.spread, 2) + "x" : std::string("-");
      };
      t.add_row({std::to_string(nx), fmt_fixed(eps, 2), fmt_fixed(strength, 3),
                 ms(c), spread(c), std::to_string(cbs_iters), ms(m),
                 spread(m), std::to_string(mlfma_iters),
                 both ? fmt_fixed(speedup, 2) + "x" : "-",
                 both ? fmt_sci(mismatch, 1) : "-"});
      json.begin_object();
      json.field("nx", nx);
      json.field("contrast", eps);
      json.field("contrast_natural", strength);
      json.field("cbs_converged", c.converged);
      json.field("cbs_s", c.converged
                              ? c.seconds
                              : std::numeric_limits<double>::quiet_NaN());
      json.field("cbs_spread",
                 c.converged ? c.spread
                             : std::numeric_limits<double>::quiet_NaN());
      json.field("cbs_krylov_iterations",
                 static_cast<std::uint64_t>(cbs_iters));
      json.field("mlfma_converged", m.converged);
      json.field("mlfma_s", m.converged
                                ? m.seconds
                                : std::numeric_limits<double>::quiet_NaN());
      json.field("mlfma_spread",
                 m.converged ? m.spread
                             : std::numeric_limits<double>::quiet_NaN());
      json.field("mlfma_krylov_iterations",
                 static_cast<std::uint64_t>(mlfma_iters));
      json.field("speedup", both ? speedup
                                 : std::numeric_limits<double>::quiet_NaN());
      json.field("mismatch_rel", mismatch);
      json.field("backend", backend_name(BackendKind::kCbs));
      json.field("baseline_backend", backend_name(BackendKind::kMlfma));
      json.end();
    }
    if (crossover == 0.0 && prev_speedup > 1.0) {
      crossover = std::numeric_limits<double>::quiet_NaN();  // never crossed
    }
    crossovers.emplace_back(nx, crossover);
  }
  json.end();

  json.begin_array("crossover");
  for (const auto& [nx, eps] : crossovers) {
    json.begin_object();
    json.field("nx", nx);
    json.field("crossover_contrast", eps);  // null: FFT won the whole sweep
    json.end();
  }
  json.end();
  json.field("weak_contrast_speedup_128", weak_speedup_128);

  // End-to-end check of the kAuto routing: a full weak-contrast DBIM
  // reconstruction on MLFMA only vs backend = kAuto (the FFT backend).
  // Same measurements, same outer iterations — the acceptance gate is
  // RMSE parity within 0.1% at a measurable end-to-end speedup.
  ScenarioConfig cfg;
  cfg.nx = 64;
  Scenario scene(cfg,
                 gaussian_blob(Grid(cfg.nx), Vec2{0.3, -0.2}, 0.5,
                               cplx{0.01, 0.0}));
  DbimOptions mopts;
  mopts.max_iterations = 8;
  struct DbimRun {
    double seconds = 0.0, rmse = 0.0;
  };
  const auto run_dbim = [&](const DbimOptions& o) {
    Timer dt;
    const DbimResult res = dbim_reconstruct(scene.engine(),
                                            scene.transceivers(),
                                            scene.measurements(), o,
                                            cfg.forward);
    return DbimRun{dt.seconds(),
                   image_rmse(res.contrast, scene.true_contrast())};
  };
  const DbimRun mlfma_run = run_dbim(mopts);
  DbimOptions aopts = mopts;
  aopts.backend = BackendKind::kAuto;
  const DbimRun auto_run = run_dbim(aopts);
  const double rmse_rel_diff =
      mlfma_run.rmse > 0.0
          ? std::abs(auto_run.rmse - mlfma_run.rmse) / mlfma_run.rmse
          : 0.0;
  json.begin_object("dbim_end_to_end");
  json.field("nx", cfg.nx);
  json.field("dbim_iterations",
             static_cast<std::uint64_t>(mopts.max_iterations));
  json.field("mlfma_s", mlfma_run.seconds);
  json.field("auto_s", auto_run.seconds);
  json.field("speedup", mlfma_run.seconds / auto_run.seconds);
  json.field("rmse_mlfma", mlfma_run.rmse);
  json.field("rmse_auto", auto_run.rmse);
  json.field("rmse_rel_diff", rmse_rel_diff);
  json.end();
  std::printf(
      "dbim end-to-end (64^2 weak blob, 8 iterations): mlfma %.2f s, "
      "kAuto %.2f s (%.2fx), RMSE %.6f vs %.6f (rel diff %.2e)\n",
      mlfma_run.seconds, auto_run.seconds,
      mlfma_run.seconds / auto_run.seconds, mlfma_run.rmse, auto_run.rmse,
      rmse_rel_diff);
  json.close();

  std::printf("%s\n", t.to_string().c_str());
  for (const auto& [nx, eps] : crossovers) {
    if (std::isnan(eps)) {
      std::printf("crossover (nx=%d): none within the sweep — FFT wins "
                  "through eps=%.2f\n",
                  nx, contrasts.back());
    } else {
      std::printf("crossover (nx=%d): eps ~= %.3f\n", nx, eps);
    }
  }
  std::printf(
      "reading: both backends solve the identical discrete system with\n"
      "block BiCGStab, so the mismatch column is a live cross-validation\n"
      "(expect ~1e-7 at tol 1e-9) and the two iteration columns agree\n"
      "to within an iteration; the speedup column is then the cost ratio\n"
      "of one MLFMA apply to one padded-FFT round trip.\n");
  if (!all_converged) std::printf("FAILED: an FFT solve did not converge\n");
  std::printf("elapsed: %.1f s\n", total.seconds());
  return all_converged ? 0 : 1;
}
