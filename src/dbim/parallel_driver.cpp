#include "dbim/parallel_driver.hpp"

#include "service/table_cache.hpp"

namespace ffw {

std::unique_ptr<DbimWorkspace> make_partitioned_workspace(
    Comm& comm, int rank_base, int illum_groups, const PartitionedMlfma& pm,
    const QuadTree& tree, const Transceivers& trx, const CMatrix& measured,
    const DbimOptions& opts, const BicgstabOptions& fw_opts) {
  // Serial-driver features the partitioned ranks do not run yet.
  const char* unsupported =
      opts.backend != BackendKind::kMlfma
          ? "parallel DBIM runs on the partitioned MLFMA engine only; "
            "CBS/auto backend routing is a serial-driver feature"
      : opts.mixed_engine != nullptr
          ? "parallel DBIM runs the fp64 partitioned engine only; "
            "DbimOptions::mixed_engine is a serial-driver feature"
      : opts.near_precondition &&
              pm.nearfield().precision() != Precision::kDouble
          ? "parallel DBIM near-field preconditioner needs fp64 near-field "
            "tables"
          : nullptr;
  FFW_CHECK_MSG(unsupported == nullptr, unsupported);
  const int tr = pm.nranks();
  const int window = illum_groups * tr;
  const int wrank = comm.rank() - rank_base;
  FFW_CHECK_MSG(illum_groups >= 1 && wrank >= 0 && wrank < window &&
                    rank_base + window <= comm.size(),
                "parallel DBIM: calling rank outside its window");
  FFW_CHECK_MSG(illum_groups <= trx.num_transmitters(),
                "parallel DBIM: more illumination groups than transmitters");
  const int group = wrank / tr, tree_rank = wrank % tr;
  const int tree_base = rank_base + group * tr;

  // The rank's leaf-blocked slice of cluster order, for the group's
  // transmitters (round robin).
  DbimShare share;
  share.comm = &comm;
  share.order = tree.perm();
  const std::size_t npl = static_cast<std::size_t>(tree.pixels_per_leaf());
  share.first = pm.leaf_begin(tree_rank) * npl;
  for (int t = group; t < trx.num_transmitters(); t += illum_groups)
    share.transmitters.push_back(t);
  share.layout = BlockLayout{npl, share.transmitters.size(),
                             pm.leaf_end(tree_rank) - pm.leaf_begin(tree_rank)};
  for (int r = 0; r < tr; ++r) share.tree_group.push_back(tree_base + r);
  for (int g = 0; g < illum_groups; ++g)
    share.column_group.push_back(rank_base + g * tr + tree_rank);
  for (int r = 0; r < window; ++r) share.window.push_back(rank_base + r);

  auto ws = std::make_unique<DbimWorkspace>(
      std::make_unique<PartitionedForwardSolver>(comm, tree_base, pm, fw_opts,
                                                 opts.near_precondition),
      trx, measured, fw_opts, std::move(share));
  if (opts.recycle_depth > 0) {
    ws->set_recycling(static_cast<std::size_t>(opts.recycle_depth),
                      opts.recycle_ridge);
  }
  return ws;
}

DbimResult dbim_reconstruct_parallel(VCluster& vc, const QuadTree& tree,
                                     const Transceivers& trx,
                                     const CMatrix& measured,
                                     const ParallelDbimConfig& config) {
  const int ig = config.illum_groups, tr = config.tree_ranks;
  FFW_CHECK(vc.size() == ig * tr);
  OperatorTableCache* cache = config.dbim.table_cache;
  const PartitionedMlfma pm =
      cache != nullptr
          ? PartitionedMlfma(cache->mlfma_tables(tree.grid(),
                                                 tree.leaf_pixel_side(),
                                                 config.mlfma),
                             tr)
          : PartitionedMlfma(tree, config.mlfma, tr);

  // The stepper's checkpoint hook fires on global rank 0 with the
  // natural-order state; the file is what a restart resumes from.
  DbimOptions opts = config.dbim;
  if (!config.checkpoint_path.empty()) {
    opts.checkpoint = [&config](const DbimCheckpoint& state) {
      FFW_CHECK_MSG(state.save(config.checkpoint_path),
                    "parallel DBIM: checkpoint save failed");
      if (config.dbim.checkpoint) config.dbim.checkpoint(state);
    };
  }
  // Crash-recovery state: set between (re)runs by the supervisor loop
  // below, read-only while rank threads are live.
  DbimCheckpoint saved;
  const auto load_saved = [&] {
    return !config.checkpoint_path.empty() &&
           saved.load(config.checkpoint_path);
  };
  if (config.resume_from_checkpoint && load_saved()) opts.resume = &saved;

  DbimResult out;
  const auto rank_program = [&](Comm& comm) {
    DbimStepper stepper(make_partitioned_workspace(comm, 0, ig, pm, tree, trx,
                                                   measured, opts,
                                                   config.forward),
                        opts, config.forward);
    while (stepper.step()) {
    }
    DbimResult res = stepper.result();
    // Every rank holds the full image; this process reports its lowest
    // hosted rank's copy.
    if (!vc.hosts_all() || comm.rank() == 0) out = std::move(res);
  };

  // Supervisor: a failed run (e.g. an injected RankFailure) is caught
  // here; the cluster is recovered and the ranks rerun from the last
  // atomically-saved checkpoint (or from where this call started when
  // the crash landed before the first save). Consumed crash triggers do
  // not re-fire (VCluster keeps the cumulative send counters across
  // recover()).
  for (int restarts = 0;; ++restarts) {
    try {
      vc.run(rank_program);
      return out;
    } catch (const CommFailure&) {
      // Process mode cannot restart locally — the failure means a peer
      // *process* is gone, and only the process-tree supervisor
      // (ffw_launch) can bring a whole consistent world back.
      if (!vc.hosts_all() || restarts >= config.max_restarts) throw;
      vc.recover();
      opts.resume = load_saved() ? &saved : config.dbim.resume;
    }
  }
}

}  // namespace ffw
