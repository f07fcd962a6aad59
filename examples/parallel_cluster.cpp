// The paper's two-dimensional parallelisation (Fig. 6) on the virtual
// cluster: distribute illuminations across groups and the MLFMA tree
// across ranks within each group, then reconstruct and report the
// communication profile (who talked to whom, and how much).
//
// Threads mode (ranks are threads of this process):
//     ./build/examples/parallel_cluster [illum_groups] [tree_ranks]
//
// Process mode (ranks are real processes over shm rings or TCP; this
// binary detects the ffw_launch bootstrap environment):
//     ./build/tools/ffw_launch -n 4 -- ./build/examples/parallel_cluster 2 2
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "dbim/parallel_driver.hpp"
#include "io/image.hpp"
#include "phantom/setup.hpp"
#include "vcluster/bootstrap.hpp"

using namespace ffw;

int main(int argc, char** argv) {
  const int illum_groups = argc > 1 ? std::atoi(argv[1]) : 4;
  const int tree_ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  ScenarioConfig config;
  config.nx = 64;
  config.num_transmitters = 16;
  config.num_receivers = 32;
  Grid grid(config.nx);
  Scenario scene(config, shepp_logan(grid, 0.02));

  // Under ffw_launch this process hosts exactly one rank; otherwise all
  // of them as threads. Same cluster API either way.
  const std::optional<ProcessBootstrap> bs = bootstrap_from_env();
  std::unique_ptr<VCluster> cluster_owned;
  if (bs) {
    FFW_CHECK_MSG(bs->world == illum_groups * tree_ranks,
                  "ffw_launch -n must equal illum_groups * tree_ranks");
    cluster_owned = make_worker_cluster(*bs);
  } else {
    cluster_owned = std::make_unique<VCluster>(illum_groups * tree_ranks);
  }
  VCluster& cluster = *cluster_owned;
  const bool chatty = !bs || bs->rank == 0;

  if (chatty) {
    std::printf("%s cluster: %d ranks = %d illumination groups x %d "
                "MLFMA sub-tree ranks (transport: %s)\n",
                bs ? "process" : "virtual", illum_groups * tree_ranks,
                illum_groups, tree_ranks, cluster.transport().name());
  }

  ParallelDbimConfig pconfig;
  pconfig.illum_groups = illum_groups;
  pconfig.tree_ranks = tree_ranks;
  pconfig.dbim.max_iterations = 10;
  if (bs) {
    // Crash recovery across relaunches: every worker checkpoints via
    // rank 0 and resumes from it when ffw_launch restarts the world.
    pconfig.checkpoint_path = "parallel_cluster.ckpt";
    pconfig.resume_from_checkpoint = bs->attempt > 0;
  }
  if (chatty) {
    pconfig.dbim.progress = [](int iteration, double residual) {
      std::printf("  iteration %2d: relative residual %.4f\n", iteration,
                  residual);
    };
  }

  const DbimResult result = dbim_reconstruct_parallel(
      cluster, scene.tree(), scene.transceivers(), scene.measurements(),
      pconfig);

  // In process mode only rank 0 holds the assembled image; the other
  // workers are done.
  if (!chatty) return 0;
  std::printf("\nimage RMSE vs truth: %.3f\n",
              image_rmse(result.contrast, scene.true_contrast()));
  write_pgm("parallel_cluster_image.pgm", grid, result.contrast);

  // Communication profile (what an MPI run would put on the wire). In
  // process mode each instance ledgers only the frames its own rank
  // sent, so this reports rank 0's rows plus the transport's physical
  // cost counters.
  const TrafficStats traffic = cluster.traffic();
  std::printf("\ncommunication totals: %.2f MB in %llu messages\n",
              static_cast<double>(traffic.total_bytes()) / 1048576.0,
              static_cast<unsigned long long>(traffic.total_messages()));
  std::printf("busiest rank moved %.2f MB\n",
              static_cast<double>(traffic.max_rank_bytes()) / 1048576.0);
  const TransportCounters tc = cluster.transport().counters();
  if (tc.wire_bytes > 0) {
    std::printf("transport: %.2f MB on the wire, %llu syscalls, %llu "
                "full-ring stalls\n",
                static_cast<double>(tc.wire_bytes) / 1048576.0,
                static_cast<unsigned long long>(tc.syscalls),
                static_cast<unsigned long long>(tc.ring_full_stalls));
  }
  if (!bs) {
    std::printf("per-edge matrix (MB):\n        ");
    for (int d = 0; d < cluster.size(); ++d) std::printf(" to %-3d", d);
    std::printf("\n");
    for (int s = 0; s < cluster.size(); ++s) {
      std::printf("from %-3d", s);
      for (int d = 0; d < cluster.size(); ++d) {
        std::printf(" %6.2f",
                    static_cast<double>(
                        traffic.bytes[static_cast<std::size_t>(s) *
                                          cluster.size() + d]) / 1048576.0);
      }
      std::printf("\n");
    }
  }
  std::printf("\nnote: tree-halo traffic stays inside each illumination "
              "group; gradient combines cross groups twice per iteration "
              "(paper Fig. 4).\n");
  return 0;
}
