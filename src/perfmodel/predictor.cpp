#include "perfmodel/predictor.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "dbim/dbim.hpp"
#include "parallel/parallel_for.hpp"
#include "phantom/setup.hpp"

namespace ffw {

CalibratedRates calibrate(int nx, int applies) {
  CalibratedRates rates;
  {  // Per-phase rates from real engine timings, on one thread.
    struct OneThread {
      int prev = set_num_threads(1);
      OneThread() = default;
      OneThread(const OneThread&) = delete;
      OneThread& operator=(const OneThread&) = delete;
      ~OneThread() { set_num_threads(prev); }
    } one_thread;
    Grid grid(nx);
    QuadTree tree(grid);
    MlfmaEngine engine(tree);
    const std::size_t n = grid.num_pixels();
    Rng rng(71);
    cvec x(n), y(n);
    rng.fill_cnormal(x);
    engine.apply(x, y);  // warm-up (touches all tables)
    engine.clear_phase_times();
    for (int i = 0; i < applies; ++i) engine.apply(x, y);
    const WorkCensus work = census_work(tree, engine.plan());
    for (std::size_t p = 0; p < rates.cmacs_per_s.size(); ++p) {
      const double t = engine.phase_times().seconds[p] / applies;
      rates.cmacs_per_s[p] = t > 0.0 ? work.cmacs[p] / t : 1e9;
    }
  }
  {  // Solver shape from a real small reconstruction.
    // A representative regime: a multi-wavelength domain and a contrast
    // strong enough that forward solves need several BiCGS iterations,
    // as at paper scale (the paper averages 13.4 MLFMA products, i.e.
    // ~6.5 iterations, per solve). A tiny weak-contrast scene would
    // yield 1-2 iterations and overstate the relative variation.
    ScenarioConfig cfg;
    cfg.nx = 64;
    cfg.num_transmitters = 6;
    cfg.num_receivers = 24;
    Grid grid(cfg.nx);
    Scenario scene(cfg, annulus(grid, 1.0, 2.0, cplx{0.04, 0.0}));
    DbimWorkspace ws(scene.engine(), scene.transceivers(),
                     scene.measurements(), cfg.forward);
    cvec grad(grid.num_pixels()), residuals(ws.residual_size());
    // Calibrate around a mid-reconstruction background (a perturbed copy
    // of the truth): a zero background makes the system the identity and
    // every solve trivial, which is not the regime the paper reports
    // (13.4 MLFMA multiplications per solve).
    cvec o(scene.true_contrast().begin(), scene.true_contrast().end());
    for (auto& v : o) v *= 0.7;
    for (int iter = 0; iter < 4; ++iter) {
      ws.set_background(o);
      std::fill(grad.begin(), grad.end(), cplx{});
      ws.residual_pass_all(residuals);
      ws.gradient_pass_all(residuals, grad);
      // crude gradient step, enough to vary the background
      double gmax = 0.0;
      for (const auto& v : grad) gmax = std::max(gmax, std::abs(v));
      if (gmax > 0) {
        for (std::size_t i = 0; i < o.size(); ++i)
          o[i] -= 0.2 / gmax * grad[i];
      }
    }
    const ForwardStats& st = ws.solver().stats();
    rates.mlfma_per_solve = st.solves
                                ? static_cast<double>(st.operator_applications) /
                                      static_cast<double>(st.solves)
                                : 13.0;
    // Drop trivial (converged-on-entry) solves: they are an artefact of
    // warm starts at this tiny calibration size, not of paper-scale runs.
    std::vector<double> samples;
    for (auto it : st.per_solve_iterations) {
      if (it > 0) samples.push_back(static_cast<double>(it));
    }
    if (!samples.empty()) {
      double mean = 0.0;
      for (double v : samples) mean += v;
      mean /= static_cast<double>(samples.size());
      double var = 0.0;
      for (double v : samples) var += (v - mean) * (v - mean);
      var /= static_cast<double>(samples.size());
      rates.bicgs_mean = std::max(1.0, mean);
      rates.bicgs_std = std::sqrt(var);
    }
  }
  {  // Iteration growth with domain size: real forward solves on a
     // proportionally scaled annulus at three domain sizes.
    std::vector<double> iters;
    for (int nx : {32, 64, 128}) {
      Grid grid(nx);
      QuadTree tree(grid);
      MlfmaEngine engine(tree);
      ForwardSolver fs(engine);
      const double d = grid.domain();
      fs.set_contrast(contrast_from_permittivity(
          grid, annulus(grid, 0.16 * d, 0.31 * d, cplx{0.04, 0.0})));
      Transceivers trx(grid, ring_positions(1, d), ring_positions(4, d));
      const ccspan inc = trx.incident_field(0);
      cvec phi(grid.num_pixels(), cplx{});
      fs.solve(inc, phi, 1, 0.0, /*adjoint=*/false);
      iters.push_back(std::max(
          1.0, static_cast<double>(fs.stats().per_solve_iterations.back())));
    }
    rates.bicgs_domain_exponent =
        std::log(iters.back() / iters.front()) / std::log(128.0 / 32.0);
  }
  return rates;
}

ScalingModel::ScalingModel(MachineParams machine, CalibratedRates rates)
    : machine_(std::move(machine)), rates_(std::move(rates)) {}

double ScalingModel::phase_compute_time(const WorkCensus& work,
                                        MlfmaPhase phase, int p_tree,
                                        bool gpu) const {
  // This host's kernel rates split an application's time across the
  // phases; the modelled node's throughput sets its length, so faster
  // host kernels change no prediction beyond that split.
  const auto host_s = [&](std::size_t q) {
    return work.cmacs[q] > 0.0 ? work.cmacs[q] / rates_.cmacs_per_s[q] : 0.0;
  };
  double apply_s = 0.0;
  for (std::size_t q = 0; q < work.cmacs.size(); ++q) apply_s += host_s(q);
  if (apply_s <= 0.0) return 0.0;
  const std::size_t p = static_cast<std::size_t>(phase);
  const double share = host_s(p) / apply_s;
  const double node_s = share * work.total() / machine_.cpu_node_cmacs_per_s;
  return node_s / static_cast<double>(p_tree) /
         (gpu ? machine_.gpu_phase_speedup[p] : 1.0);
}

double ScalingModel::halo_time(const QuadTree& tree, const MlfmaPlan& plan,
                               int p_tree) const {
  if (p_tree <= 1) return 0.0;
  const CommCensus comm = census_halo(tree, plan, p_tree);
  // Critical path: the busiest rank's bytes, plus per-message latency.
  const double msgs_per_rank =
      static_cast<double>(comm.messages) / static_cast<double>(p_tree);
  return static_cast<double>(comm.max_rank_bytes) / machine_.net_bandwidth_bps +
         msgs_per_rank * machine_.net_latency_s;
}

double ScalingModel::mlfma_apply_time(const QuadTree& tree,
                                      const MlfmaPlan& plan, int p_tree,
                                      bool gpu) const {
  const WorkCensus work = census_work(tree, plan);
  double compute = 0.0;
  for (std::size_t p = 0; p < work.cmacs.size(); ++p) {
    compute +=
        phase_compute_time(work, static_cast<MlfmaPhase>(p), p_tree, gpu);
  }
  // Interaction lists are shorter near domain edges, so Morton-range
  // partitions are not perfectly balanced; the slowest rank sets the pace.
  compute *= census_imbalance(tree, plan, p_tree);
  if (gpu) {
    // Kernel-granularity loss: throughput halves when per-node work per
    // application reaches the underfill knee (paper Sec. V-C2).
    const double per_node = work.total() / static_cast<double>(p_tree);
    compute *= 1.0 + machine_.gpu_underfill_cmacs / per_node;
    compute += machine_.gpu_kernel_overhead_s *
               machine_.kernels_per_apply(tree.num_levels());
  }
  const double comm = halo_time(tree, plan, p_tree);
  // GPU nodes overlap communication (CPU posts/drains while the GPU
  // computes, paper Fig. 8); CPU nodes pay it serially.
  return gpu ? std::max(compute, comm) : compute + comm;
}

namespace {
/// Deterministic standard-normal sample from an integer key.
double hash_normal(std::initializer_list<std::uint64_t> key) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t v : key) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  const double u1 =
      (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  std::uint64_t h2 = h * 0x94D049BB133111EBull;
  h2 ^= h2 >> 29;
  const double u2 = (static_cast<double>(h2 >> 11) + 0.5) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * pi * u2);
}
}  // namespace

double ScalingModel::sampled_iters(int t, int iter, int solve) const {
  // Two variation components: a per-illumination systematic offset
  // (persistent across DBIM iterations — never averages out on a node
  // that owns few illuminations) and a per-solve fluctuation.
  const double systematic =
      rates_.bicgs_illum_std * hash_normal({static_cast<std::uint64_t>(t)});
  const double fluctuation =
      rates_.bicgs_std *
      hash_normal({static_cast<std::uint64_t>(t),
                   static_cast<std::uint64_t>(iter),
                   static_cast<std::uint64_t>(solve) + 17});
  return std::max(1.0, rates_.bicgs_mean + systematic + fluctuation);
}

double ScalingModel::reconstruction_time(const ProblemSpec& spec,
                                         const QuadTree& tree,
                                         const MlfmaPlan& plan, int p_illum,
                                         int p_tree, bool gpu,
                                         bool adjusted) const {
  const double t_apply = mlfma_apply_time(tree, plan, p_tree, gpu);
  // MLFMA applications per solve scale with the iteration count; the
  // measured ratio is per mean-iteration solve.
  const double apps_per_iter = rates_.mlfma_per_solve / rates_.bicgs_mean;
  // Iteration counts grow with the domain side (measured exponent). The
  // "adjusted" metric normalises to the reference 102.4-lambda domain,
  // exactly like the paper's adjustment to the 64-node baseline.
  const double domain_factor =
      adjusted ? 1.0
               : std::pow(static_cast<double>(spec.nx) / 1024.0,
                          rates_.bicgs_domain_exponent);

  // Synchronisation across illumination groups: the gradient combine and
  // the step combine, each an allreduce of the rank-local image slice.
  const std::size_t slice = tree.grid().num_pixels() /
                            static_cast<std::size_t>(p_tree);
  const double rounds = std::ceil(std::log2(std::max(2, p_illum)));
  const double sync = p_illum > 1
                          ? 2.0 * rounds *
                                (machine_.net_latency_s +
                                 static_cast<double>(slice * sizeof(cplx)) /
                                     machine_.net_bandwidth_bps)
                          : 0.0;

  double total = 0.0;
  for (int iter = 0; iter < spec.dbim_iterations; ++iter) {
    double iter_max = 0.0;
    for (int g = 0; g < p_illum; ++g) {
      double node_time = 0.0;
      for (int t = g; t < spec.transmitters; t += p_illum) {
        for (int solve = 0; solve < 3; ++solve) {
          const double iters =
              (adjusted ? rates_.bicgs_mean : sampled_iters(t, iter, solve)) *
              domain_factor;
          node_time += iters * apps_per_iter * t_apply;
        }
      }
      iter_max = std::max(iter_max, node_time);
    }
    total += iter_max * (1.0 + machine_.non_mlfma_fraction) + sync;
  }
  return total;
}

namespace {
std::vector<ScalingPoint> finalise(std::vector<ScalingPoint> pts) {
  if (pts.empty()) return pts;
  const double t0 = pts.front().time_s * pts.front().nodes;
  const double a0 = pts.front().adjusted_time_s * pts.front().nodes;
  for (auto& p : pts) {
    p.efficiency = t0 / (p.time_s * p.nodes);
    p.adjusted_efficiency = a0 / (p.adjusted_time_s * p.nodes);
  }
  return pts;
}
}  // namespace

std::vector<ScalingPoint> ScalingModel::strong_scaling_illuminations(
    const ProblemSpec& spec, const QuadTree& tree, const MlfmaPlan& plan,
    const std::vector<int>& node_counts, bool gpu) const {
  std::vector<ScalingPoint> out;
  for (int nodes : node_counts) {
    ScalingPoint p;
    p.nodes = nodes;
    p.time_s = reconstruction_time(spec, tree, plan, nodes, 1, gpu, false);
    p.adjusted_time_s =
        reconstruction_time(spec, tree, plan, nodes, 1, gpu, true);
    out.push_back(p);
  }
  return finalise(std::move(out));
}

std::vector<ScalingPoint> ScalingModel::strong_scaling_subtrees(
    const ProblemSpec& spec, const QuadTree& tree, const MlfmaPlan& plan,
    int base_nodes, const std::vector<int>& node_counts, bool gpu) const {
  std::vector<ScalingPoint> out;
  for (int nodes : node_counts) {
    const int p_tree = nodes / base_nodes;
    ScalingPoint p;
    p.nodes = nodes;
    p.time_s =
        reconstruction_time(spec, tree, plan, base_nodes, p_tree, gpu, false);
    p.adjusted_time_s =
        reconstruction_time(spec, tree, plan, base_nodes, p_tree, gpu, true);
    out.push_back(p);
  }
  return finalise(std::move(out));
}

std::vector<ScalingPoint> ScalingModel::weak_scaling_illuminations(
    const ProblemSpec& base, const QuadTree& tree, const MlfmaPlan& plan,
    const std::vector<int>& node_counts, bool gpu) const {
  std::vector<ScalingPoint> out;
  for (int nodes : node_counts) {
    ProblemSpec spec = base;
    spec.transmitters = nodes;  // one illumination per node
    ScalingPoint p;
    p.nodes = nodes;
    p.time_s = reconstruction_time(spec, tree, plan, nodes, 1, gpu, false);
    p.adjusted_time_s =
        reconstruction_time(spec, tree, plan, nodes, 1, gpu, true);
    out.push_back(p);
  }
  // Weak scaling efficiency: time should stay constant.
  if (!out.empty()) {
    const double t0 = out.front().time_s;
    const double a0 = out.front().adjusted_time_s;
    for (auto& p : out) {
      p.efficiency = t0 / p.time_s;
      p.adjusted_efficiency = a0 / p.adjusted_time_s;
    }
  }
  return out;
}

ScalingModel::PhaseTimes16 ScalingModel::phase_scaling(
    const QuadTree& tree, const MlfmaPlan& plan, MlfmaPhase phase,
    int p_tree) const {
  const WorkCensus work = census_work(tree, plan);
  PhaseTimes16 out;
  out.cpu1 = phase_compute_time(work, phase, 1, false);
  out.gpu1 = phase_compute_time(work, phase, 1, true);
  // Communication is charged to the phases that need it (translation and
  // near field), split by their share of the halo volume.
  double comm = 0.0;
  if (phase == MlfmaPhase::kTranslation || phase == MlfmaPhase::kNearField) {
    comm = 0.5 * halo_time(tree, plan, p_tree);
  }
  const double imb = census_imbalance(tree, plan, p_tree);
  const double per_node = work.total() / static_cast<double>(p_tree);
  const double underfill = 1.0 + machine_.gpu_underfill_cmacs / per_node;
  const double c_cpu = phase_compute_time(work, phase, p_tree, false) * imb;
  const double c_gpu =
      phase_compute_time(work, phase, p_tree, true) * imb * underfill;
  out.cpu16 = c_cpu + comm;                 // CPU pays communication
  out.gpu16 = std::max(c_gpu, comm);        // GPU overlaps it (Fig. 8)
  return out;
}

}  // namespace ffw
