// tomo_cli — a complete command-line tomographic reconstruction tool on
// top of the library's public API: pick a phantom, geometry, method and
// noise level; get images, a residual log, and a run report.
//
//   ./build/examples/tomo_cli --phantom shepp --nx 64 --tx 16 --rx 32
//       --method dbim --iters 15 --noise 0.01 --out run1
//
// Methods: born (linear baseline), dbim (the paper's solver),
// multifreq (a two-band frequency-continuation ladder, half frequency
// first; dbim/continuation.hpp). With --checkpoint the DBIM
// outer loop saves resumable state each iteration and auto-resumes if
// the file already exists.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/timer.hpp"
#include "dbim/born.hpp"
#include "dbim/continuation.hpp"
#include "io/checkpoint.hpp"
#include "io/csv.hpp"
#include "io/image.hpp"

using namespace ffw;

namespace {

struct CliOptions {
  std::string phantom = "shepp";  // shepp | annulus | disks | blob
  int nx = 64;
  int tx = 16;
  int rx = 32;
  std::string method = "dbim";  // born | dbim | multifreq
  int iterations = 15;
  double contrast = 0.02;
  double noise = 0.0;
  double arc_degrees = 360.0;
  double tikhonov = 0.0;
  std::string out = "tomo";
  std::string checkpoint;
  int leaf = QuadTree::kDefaultLeafPixelSide;
  bool quiet = false;
};

void usage() {
  std::printf(
      "usage: tomo_cli [options]\n"
      "  --phantom shepp|annulus|disks|blob   object to image (default shepp)\n"
      "  --nx N          pixels per side, N/leaf a power of two (64)\n"
      "  --tx N          transmitters (16)        --rx N   receivers (32)\n"
      "  --method M      born|dbim|multifreq (dbim)\n"
      "  --iters N       outer iterations (15)\n"
      "  --contrast C    peak permittivity contrast (0.02)\n"
      "  --noise S       measurement noise, relative std (0)\n"
      "  --arc DEG       array arc in degrees, centred on +x (360)\n"
      "  --tikhonov L    regularisation weight (0)\n"
      "  --leaf N        MLFMA leaf pixels per side (8)\n"
      "  --checkpoint F  save/resume DBIM state in file F\n"
      "  --out PREFIX    output file prefix (tomo)\n"
      "  --quiet         suppress per-iteration output\n");
}

bool parse(int argc, char** argv, CliOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (a == "--help" || a == "-h") return false;
    if (a == "--quiet") {
      o.quiet = true;
      continue;
    }
    const char* v = next();
    if (!v) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    if (a == "--phantom") o.phantom = v;
    else if (a == "--nx") o.nx = std::atoi(v);
    else if (a == "--tx") o.tx = std::atoi(v);
    else if (a == "--rx") o.rx = std::atoi(v);
    else if (a == "--method") o.method = v;
    else if (a == "--iters") o.iterations = std::atoi(v);
    else if (a == "--contrast") o.contrast = std::atof(v);
    else if (a == "--noise") o.noise = std::atof(v);
    else if (a == "--arc") o.arc_degrees = std::atof(v);
    else if (a == "--tikhonov") o.tikhonov = std::atof(v);
    else if (a == "--leaf") o.leaf = std::atoi(v);
    else if (a == "--checkpoint") o.checkpoint = v;
    else if (a == "--out") o.out = v;
    else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

cvec make_phantom(const Grid& grid, const CliOptions& o) {
  const cplx c{o.contrast, 0.0};
  const double d = grid.domain();
  if (o.phantom == "shepp") return shepp_logan(grid, o.contrast);
  if (o.phantom == "annulus") return annulus(grid, 0.19 * d, 0.31 * d, c);
  if (o.phantom == "disks") {
    return disks(grid, {{Vec2{0.19 * d, 0.13 * d}, 0.11 * d, c},
                        {Vec2{-0.16 * d, -0.08 * d}, 0.14 * d, c}});
  }
  if (o.phantom == "blob")
    return gaussian_blob(grid, Vec2{0.1 * d, -0.1 * d}, 0.12 * d, c);
  std::fprintf(stderr, "unknown phantom '%s'\n", o.phantom.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  if (!parse(argc, argv, o)) {
    usage();
    return 1;
  }

  ScenarioConfig cfg;
  cfg.nx = o.nx;
  cfg.num_transmitters = o.tx;
  cfg.num_receivers = o.rx;
  cfg.leaf_pixel_side = o.leaf;
  cfg.measurement_noise = o.noise;
  const double half = 0.5 * o.arc_degrees * pi / 180.0;
  cfg.tx_angle_begin = -half;
  cfg.tx_angle_end = half;
  cfg.rx_angle_begin = -half;
  cfg.rx_angle_end = half;

  if (o.method != "born" && o.method != "dbim" && o.method != "multifreq") {
    std::fprintf(stderr, "unknown method '%s'\n", o.method.c_str());
    return 2;
  }

  Grid grid(cfg.nx);
  const cvec truth = make_phantom(grid, o);

  std::printf("tomo_cli: %s phantom, %.1f-lambda domain (%zu px), "
              "%d Tx / %d Rx on a %.0f-degree arc, method %s\n",
              o.phantom.c_str(), grid.domain(), grid.num_pixels(), o.tx,
              o.rx, o.arc_degrees, o.method.c_str());

  Timer timer;
  cvec image;
  std::vector<double> residuals;

  if (o.method == "multifreq") {
    const FrequencyLadder ladder{
        {{1, (o.iterations + 1) / 2}, {0, o.iterations / 2}}};
    const ContinuationResult mf = continuation_reconstruct(cfg, truth, ladder);
    image = contrast_from_permittivity(grid, mf.permittivity);
    for (const StageReport& stage : mf.stages) {
      const std::vector<double>& r = stage.history.relative_residual;
      residuals.insert(residuals.end(), r.begin(), r.end());
    }
  } else {
    Scenario scene(cfg, truth);
    if (o.method == "born") {
      BornOptions bopts;
      bopts.max_iterations = o.iterations;
      const BornResult res = born_reconstruct(
          scene.grid(), scene.transceivers(), scene.measurements(), bopts);
      image = res.contrast;
      residuals = res.relative_residual;
    } else if (o.method == "dbim") {
      DbimOptions dopts;
      dopts.max_iterations = o.iterations;
      dopts.tikhonov = o.tikhonov;
      if (!o.quiet) {
        dopts.progress = [](int it, double r) {
          std::printf("  iteration %2d: relative residual %.4f\n", it, r);
        };
      }
      DbimCheckpoint resume_state;
      if (!o.checkpoint.empty()) {
        if (resume_state.load(o.checkpoint)) {
          std::printf("resuming from %s at iteration %d\n",
                      o.checkpoint.c_str(), resume_state.iteration);
          dopts.resume = &resume_state;
        }
        dopts.checkpoint = [&o](const DbimCheckpoint& s) {
          s.save(o.checkpoint);
        };
      }
      const DbimResult res = dbim_reconstruct(
          scene.engine(), scene.transceivers(), scene.measurements(), dopts);
      image = res.contrast;
      residuals = res.history.relative_residual;
      std::printf("forward solves: %llu, MLFMA products: %llu\n",
                  static_cast<unsigned long long>(res.history.forward_solves),
                  static_cast<unsigned long long>(
                      res.history.operator_applications));
    } else {
      std::fprintf(stderr, "unknown method '%s'\n", o.method.c_str());
      return 2;
    }
  }

  // Report.
  const cvec true_contrast = contrast_from_permittivity(grid, truth);
  const double rmse = image_rmse(image, true_contrast);
  std::printf("\ndone in %.1f s\n", timer.seconds());
  if (!residuals.empty()) {
    std::printf("residual: %.4f -> %.4f over %zu iterations\n",
                residuals.front(), residuals.back(), residuals.size());
  }
  std::printf("image RMSE vs truth: %.3f\n", rmse);

  write_pgm(o.out + "_truth.pgm", grid, true_contrast);
  write_pgm(o.out + "_image.pgm", grid, image);
  std::vector<double> iters(residuals.size());
  for (std::size_t i = 0; i < iters.size(); ++i)
    iters[i] = static_cast<double>(i);
  write_csv(o.out + "_residual.csv",
            {{"iteration", iters}, {"relative_residual", residuals}});
  std::printf("wrote %s_truth.pgm, %s_image.pgm, %s_residual.csv\n",
              o.out.c_str(), o.out.c_str(), o.out.c_str());
  return 0;
}
