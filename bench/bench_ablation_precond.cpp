// Ablation / future-work extension: preconditioning of the forward
// system (paper Sec. VIII: "We also plan to apply resonance-free
// integral formulations and preconditioning of the system").
//
// Sweeps the object contrast and reports BiCGStab iteration counts on
// real solves, without preconditioning and with the per-leaf near-field
// self-block Jacobi (forward/precond.hpp).
//
// Writes BENCH_ablation_precond.json (see FFW_BENCH_JSON_DIR).
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "forward/forward.hpp"
#include "greens/transceivers.hpp"
#include "phantom/phantom.hpp"

using namespace ffw;

namespace {

enum class Mode { kPlain, kBlock };

struct SolveCost {
  int iterations = -1;        // -1 = diverged
  double setup_seconds = 0.0; // preconditioner factor time
};

SolveCost cost_for(MlfmaEngine& engine, ccspan contrast, Mode mode) {
  BicgstabOptions opts;
  opts.tol = 1e-6;
  opts.max_iterations = 400;
  ForwardSolver fs(engine, opts);
  if (mode == Mode::kBlock) fs.set_near_preconditioner(true);
  fs.set_contrast(contrast);
  const Grid& grid = engine.tree().grid();
  Transceivers trx(grid, ring_positions(1, grid.domain()),
                   ring_positions(4, grid.domain()));
  const ccspan inc = trx.incident_field(0);
  cvec phi(grid.num_pixels(), cplx{});
  const BlockBicgstabResult r = fs.solve_block(inc, phi, 1);
  SolveCost out;
  out.iterations = r.converged ? r.rhs[0].iterations : -1;
  out.setup_seconds = fs.stats().precond_setup_seconds;
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation — forward-system preconditioning vs contrast",
                "paper Sec. VIII future work (preconditioning near "
                "resonances)");
  Timer total;

  Grid grid(64);
  QuadTree tree(grid);
  MlfmaEngine engine(tree);

  bench::JsonWriter json("BENCH_ablation_precond");
  json.field("bench", "ablation_precond");
  json.field("backend", backend_name(BackendKind::kMlfma));
  json.field("nx", 64);
  json.field("tol", 1e-6);

  Table t({"permittivity contrast", "plain BiCGS iters", "self-block iters",
           "plain (lossy)", "self-block (lossy)"});
  std::vector<double> c_col, plain_col, block_col;
  double setup_s = 0.0;
  json.begin_array("sweep");
  for (double eps : {0.05, 0.15, 0.3, 0.5}) {
    const cvec lossless = contrast_from_permittivity(
        grid, disks(grid, {{Vec2{0, 0}, 2.0, cplx{eps, 0.0}}}));
    const cvec lossy = contrast_from_permittivity(
        grid, disks(grid, {{Vec2{0, 0}, 2.0, cplx{eps, -0.3 * eps}}}));
    const SolveCost p0 = cost_for(engine, lossless, Mode::kPlain);
    const SolveCost pb = cost_for(engine, lossless, Mode::kBlock);
    const SolveCost l0 = cost_for(engine, lossy, Mode::kPlain);
    const SolveCost lb = cost_for(engine, lossy, Mode::kBlock);
    setup_s = pb.setup_seconds;
    auto show = [](const SolveCost& v) {
      return v.iterations < 0 ? std::string("diverged")
                              : std::to_string(v.iterations);
    };
    t.add_row({fmt_fixed(eps, 2), show(p0), show(pb), show(l0), show(lb)});
    c_col.push_back(eps);
    plain_col.push_back(p0.iterations);
    block_col.push_back(pb.iterations);
    json.begin_object();
    json.field("contrast", eps);
    json.field("plain_iters", p0.iterations);
    json.field("block_iters", pb.iterations);
    json.field("plain_lossy_iters", l0.iterations);
    json.field("block_lossy_iters", lb.iterations);
    json.field("block_setup_s", pb.setup_seconds);
    json.end();
  }
  json.end();
  json.field("block_setup_s_last", setup_s);
  json.close();
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "reading: for this volume formulation the system diagonal\n"
      "1 - G0_nn O_n is nearly *constant* over the object, so diagonal\n"
      "scaling was an honest null result (EXPERIMENTS.md). The useful\n"
      "preconditioner for this operator is the next structure up:\n"
      "the per-leaf *self block* I - A_self diag(O_c) (the intra-leaf\n"
      "multiple scattering the near-field tables already encode), LU-\n"
      "factored once per contrast update. Its per-solve cut is modest —\n"
      "~15%% at the strongest contrasts here, nothing at weak contrast —\n"
      "but it is the piece of the DESIGN.md Sec. 13 stack that works at\n"
      "exactly the contrasts where the others degrade; the setup cost\n"
      "(block_setup_s in the JSON) is amortised over every solve of a\n"
      "DBIM iteration.\n");
  write_csv("ablation_precond.csv", {{"contrast", c_col},
                                     {"plain_iters", plain_col},
                                     {"block_iters", block_col}});
  std::printf("elapsed: %.1f s\n", total.seconds());
  return 0;
}
