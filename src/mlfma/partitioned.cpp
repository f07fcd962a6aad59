#include "mlfma/partitioned.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "linalg/block.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "mlfma/farfield.hpp"
#include "obs/obs.hpp"

namespace ffw {

namespace {
constexpr int kTagNear = 1;
constexpr int kTagLevel = 10;  // + level
}  // namespace

PartitionedMlfma::PartitionedMlfma(const QuadTree& tree,
                                   const MlfmaParams& params, int nranks)
    : PartitionedMlfma(std::make_shared<const OperatorTables>(tree, params),
                       nranks) {}

PartitionedMlfma::PartitionedMlfma(std::shared_ptr<const OperatorTables> tables,
                                   int nranks)
    : tables_(std::move(tables)), tree_(&tables_->tree()),
      plan_(tables_->plan()), ops_(tables_->ops()),
      near_(tables_->nearfield()), nranks_(nranks) {
  FFW_CHECK_MSG(tree_->num_levels() >= 1,
                "partitioned MLFMA needs at least one far-field level");
  const std::size_t top_clusters =
      tree_->level(tree_->num_levels() - 1).num_clusters;
  FFW_CHECK_MSG(nranks >= 1 &&
                    top_clusters % static_cast<std::size_t>(nranks) == 0,
                "rank count must divide the top-level cluster count (16)");
  schedule_ = build_apply_schedule(*tree_, nranks);
}

std::size_t PartitionedMlfma::cluster_begin(int level, int rank) const {
  return tree_->level(level).num_clusters * static_cast<std::size_t>(rank) /
         static_cast<std::size_t>(nranks_);
}

std::size_t PartitionedMlfma::cluster_end(int level, int rank) const {
  return cluster_begin(level, rank + 1);
}

int PartitionedMlfma::owner_of(int level, std::size_t cluster) const {
  return static_cast<int>(cluster * static_cast<std::size_t>(nranks_) /
                          tree_->level(level).num_clusters);
}

std::size_t PartitionedMlfma::leaf_begin(int rank) const {
  return cluster_begin(0, rank);
}

std::size_t PartitionedMlfma::leaf_end(int rank) const {
  return cluster_end(0, rank);
}

std::size_t PartitionedMlfma::panel_elements(int rank) const {
  const RankSchedule& rs = schedule_[static_cast<std::size_t>(rank)];
  std::size_t n = 0;
  for (int l = 0; l < tree_->num_levels(); ++l) {
    const PhaseSchedule& ls = rs.levels[static_cast<std::size_t>(l)];
    const std::size_t q = static_cast<std::size_t>(plan_.level(l).samples);
    n += q * (2 * (ls.owned_end - ls.owned_begin) + ls.num_ghosts);
  }
  n += rs.near.num_ghosts *
       static_cast<std::size_t>(tree_->pixels_per_leaf());
  return n;
}

std::size_t PartitionedMlfma::global_panel_elements() const {
  std::size_t n = 0;
  for (int l = 0; l < tree_->num_levels(); ++l) {
    n += 2 * static_cast<std::size_t>(plan_.level(l).samples) *
         tree_->level(l).num_clusters;
  }
  n += tree_->num_leaves() * static_cast<std::size_t>(tree_->pixels_per_leaf());
  return n;
}

void PartitionedMlfma::apply(Comm& comm, ccspan x_local, cspan y_local,
                             int rank_base) const {
  apply_block(comm, x_local, y_local, 1, rank_base);
}

void PartitionedMlfma::apply_block(Comm& comm, ccspan x_local, cspan y_local,
                                   std::size_t nrhs, int rank_base,
                                   ApplySchedule sched) const {
  const int rank = comm.rank() - rank_base;
  FFW_CHECK(rank >= 0 && rank < nranks_);
  FFW_CHECK(nrhs >= 1);
  const RankSchedule& rs = schedule_[static_cast<std::size_t>(rank)];
  const std::size_t np = static_cast<std::size_t>(tree_->pixels_per_leaf());
  const std::size_t lb = rs.near.owned_begin, le = rs.near.owned_end;
  const std::size_t nlocal = (le - lb) * np * nrhs;
  FFW_CHECK(x_local.size() == nlocal && y_local.size() == nlocal);

  if (plan_.params().precision == Precision::kMixed) {
    // Narrowed input copy, from the rank thread's block scratch.
    // Everything downstream — panels, wire, tables — is fp32 from here.
    ScratchFrame frame;
    const cspan32 xn = frame.take<cplx32>(x_local.size());
    narrow(x_local, xn);
    apply_block_impl<float>(comm, xn.data(), y_local, nrhs, rank_base, sched);
  } else {
    apply_block_impl<double>(comm, x_local.data(), y_local, nrhs, rank_base,
                             sched);
  }
}

template <typename T>
void PartitionedMlfma::apply_block_impl(Comm& comm,
                                        const std::complex<T>* x_local,
                                        cspan y_local, std::size_t nrhs,
                                        int rank_base,
                                        ApplySchedule sched) const {
  using C = std::complex<T>;
  const int rank = comm.rank() - rank_base;
  const RankSchedule& rs = schedule_[static_cast<std::size_t>(rank)];
  const std::size_t np = static_cast<std::size_t>(tree_->pixels_per_leaf());
  const std::size_t lb = rs.near.owned_begin, le = rs.near.owned_end;
  const int nlev = tree_->num_levels();

  // Every panel of the apply comes from the rank thread's block scratch.
  ScratchFrame frame;

  // --- Post near-field halo sends first (overlap with the whole upward
  // pass, paper Fig. 8). One message per peer regardless of nrhs.
  for (const PeerSend& ps : rs.near.sends) {
    ScratchFrame send_frame;
    const std::span<C> buf =
        send_frame.take<C>(ps.slots.size() * np * nrhs);
    for (std::size_t i = 0; i < ps.slots.size(); ++i) {
      std::copy_n(x_local + ps.slots[i] * np * nrhs, np * nrhs,
                  buf.data() + i * np * nrhs);
    }
    comm.send(rank_base + ps.peer, kTagNear, std::span<const C>{buf});
  }

  // Compact per-level spectra panels: the outgoing panel holds owned
  // clusters (slot = cluster - owned_begin) with a separate ghost panel
  // for the consumed remote spectra; the incoming panel holds owned
  // clusters only. O(local share x nrhs) memory — see panel_elements().
  // The translation sums of the incoming panel accumulate in fp64 on
  // both paths (g_sum), and T = float rounds them once into its fp32
  // panel (g_own) before the downward pass: the mixed path's
  // fp64-accumulation boundary (fp32 products, fp64 sum across them), so
  // the sum stays in budget whether or not the build contracts MACs into
  // FMAs.
  std::vector<std::span<C>> s_own(static_cast<std::size_t>(nlev)),
      s_gh(static_cast<std::size_t>(nlev)),
      g_own(static_cast<std::size_t>(nlev));
  std::vector<cspan> g_sum(static_cast<std::size_t>(nlev));
  for (int l = 0; l < nlev; ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    const PhaseSchedule& ls = rs.levels[li];
    const std::size_t q = static_cast<std::size_t>(plan_.level(l).samples);
    const std::size_t owned = ls.owned_end - ls.owned_begin;
    // Written whole by the leaf expansion and the aggregation.
    s_own[li] = frame.take<C>(q * owned * nrhs);
    s_gh[li] = frame.take<C>(q * ls.num_ghosts * nrhs);
    g_sum[li] = frame.vec(q * owned * nrhs);
    std::fill(g_sum[li].begin(), g_sum[li].end(), cplx{});
    if constexpr (std::is_same_v<T, float>) {
      g_own[li] = frame.take<C>(q * owned * nrhs);
    } else {
      g_own[li] = g_sum[li];
    }
  }

  auto send_level_halo = [&](int l) {
    const std::size_t q =
        static_cast<std::size_t>(plan_.level(l).samples) * nrhs;
    for (const PeerSend& ps : rs.levels[static_cast<std::size_t>(l)].sends) {
      ScratchFrame send_frame;
      const std::span<C> buf = send_frame.take<C>(ps.slots.size() * q);
      for (std::size_t i = 0; i < ps.slots.size(); ++i) {
        std::copy_n(s_own[static_cast<std::size_t>(l)].data() + ps.slots[i] * q,
                    q, buf.data() + i * q);
      }
      comm.send(rank_base + ps.peer, kTagLevel + l, std::span<const C>{buf});
    }
  };

  obs::add(obs::Counter::kMlfmaApplications, nrhs);

  // --- Upward pass on the owned sub-trees (communication-free), posting
  // each level's spectra to peers as soon as that level is complete.
  {
    const obs::SpanScope upward_span("dist.upward", obs::kNoArg,
                                     obs::Counter::kComputeNs);
    {  // leaf multipole expansion for owned leaves
      const std::size_t q0 = static_cast<std::size_t>(plan_.level(0).samples);
      leaf_expand<T>(ops_, np, q0, (le - lb) * nrhs, x_local,
                     s_own[0].data());
      send_level_halo(0);
    }
    for (int l = 0; l + 1 < nlev; ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      const std::size_t qc = static_cast<std::size_t>(plan_.level(l).samples);
      const std::size_t qp =
          static_cast<std::size_t>(plan_.level(l + 1).samples);
      const auto& parent = rs.levels[li + 1];
      const std::size_t pb = parent.owned_begin, pe = parent.owned_end;
      // Ranks divide every level's cluster count, so a parent's children
      // slots are 4*(p - pb) + j in the child level's owned panel.
      FFW_DCHECK(rs.levels[li].owned_begin == 4 * pb);
      for (std::size_t p = pb; p < pe; ++p) {
        aggregate_parent<T>(ops_.level(l), nrhs,
                            s_own[li].data() + 4 * (p - pb) * qc * nrhs,
                            s_own[li + 1].data() + (p - pb) * qp * nrhs);
      }
      send_level_halo(l + 1);
    }
  }

  // --- Dependency-resolved workers. y_local accumulates the near field
  // and, at the end, the disaggregated far field (all beta = 1 against a
  // zero fill, so phases can run in completion order). y_local stays
  // fp64 on both paths; T = float crosses into it only through
  // gemm_sum_t<float> (the fp64-accumulation boundaries of the local
  // expansion and the near field).
  std::fill(y_local.begin(), y_local.end(), cplx{});
  const std::span<C> x_gh = frame.take<C>(rs.near.num_ghosts * np * nrhs);

  auto run_trans = [&](int l, const std::vector<HaloWork>& work,
                       std::span<const C> src_panel) {
    obs::SpanScope span("dist.translate", l, obs::Counter::kComputeNs);
    const std::size_t q = static_cast<std::size_t>(plan_.level(l).samples);
    const LevelOperators& lops = ops_.level(l);
    // The schedule lists work in destination order: one register-tiled
    // sum per run of equal dst_slot (cf. run_near_ghosts).
    std::array<DiagTerm<T>, TreeLevel::kMaxFar> terms;
    for (std::size_t w = 0; w < work.size();) {
      const std::uint32_t dst = work[w].dst_slot;
      std::size_t count = 0;
      for (; w < work.size() && work[w].dst_slot == dst; ++w) {
        FFW_CHECK(count < terms.size());
        terms[count++] = {lops.trans<T>()[work[w].type].data(),
                          src_panel.data() + work[w].src_slot * q * nrhs};
      }
      diag_sum_t<T>(q, nrhs, terms.data(), count, q,
                    g_sum[static_cast<std::size_t>(l)].data() + dst * q * nrhs,
                    q);
    }
  };
  // The own-source near field: the rank's leaves are 16/p whole
  // top-level sub-trees, a rectangle, run as one row-Fourier box.
  auto run_near_own = [&] {
    obs::SpanScope span("dist.near", obs::kNoArg, obs::Counter::kComputeNs);
    near_.apply_box<T>(leaf_box(lb, le), x_local, y_local.data(), nrhs);
  };
  // A peer's ghost terms, in destination order: one register-tiled sum
  // per run of equal dst_slot.
  auto run_near_ghosts = [&](const std::vector<HaloWork>& work) {
    obs::SpanScope span("dist.near", obs::kNoArg, obs::Counter::kComputeNs);
    std::array<GemmTerm<T>, NearFieldOperators::kNumTypes> terms;
    for (std::size_t w = 0; w < work.size();) {
      const std::uint32_t dst = work[w].dst_slot;
      std::size_t count = 0;
      for (; w < work.size() && work[w].dst_slot == dst; ++w) {
        FFW_CHECK(count < terms.size());
        terms[count++] = {near_.type_data<T>(work[w].type),
                          x_gh.data() + work[w].src_slot * np * nrhs};
      }
      gemm_sum_t<T>(np, nrhs, np, terms.data(), count, np, np,
                    y_local.data() + dst * np * nrhs, np);
    }
  };
  // Halo payloads land contiguously in the ghost panels — no scatter.
  auto recv_level_payload = [&](int l, const PeerRecv& pr) {
    obs::SpanScope span("dist.halo_recv", l, obs::Counter::kHaloWaitNs);
    const std::size_t q =
        static_cast<std::size_t>(plan_.level(l).samples) * nrhs;
    comm.recv_into(rank_base + pr.peer, kTagLevel + l,
                   std::span<C>{s_gh[static_cast<std::size_t>(l)].data() +
                                    pr.slot_begin * q,
                                pr.count * q});
  };
  auto recv_near_payload = [&](const PeerRecv& pr) {
    obs::SpanScope span("dist.halo_recv", obs::kNoArg,
                        obs::Counter::kHaloWaitNs);
    comm.recv_into(rank_base + pr.peer, kTagNear,
                   std::span<C>{x_gh.data() + pr.slot_begin * np * nrhs,
                                pr.count * np * nrhs});
  };

  // --- Downward pass + leaf local expansion (communication-free on the
  // owned sub-trees; requires every level's translations to be done).
  auto run_downward = [&] {
    obs::SpanScope span("dist.downward", obs::kNoArg,
                        obs::Counter::kComputeNs);
    if constexpr (std::is_same_v<T, float>) {
      for (std::size_t l = 0; l < g_sum.size(); ++l)
        std::copy(g_sum[l].begin(), g_sum[l].end(), g_own[l].begin());
    }
    for (int l = nlev - 1; l >= 1; --l) {
      const std::size_t li = static_cast<std::size_t>(l);
      const std::size_t qp = static_cast<std::size_t>(plan_.level(l).samples);
      const std::size_t qc =
          static_cast<std::size_t>(plan_.level(l - 1).samples);
      const std::size_t pb = rs.levels[li].owned_begin,
                        pe = rs.levels[li].owned_end;
      ScratchFrame level_frame;
      const std::span<C> shifted = level_frame.take<C>(qp * nrhs);
      for (std::size_t p = pb; p < pe; ++p) {
        disaggregate_parent<T>(ops_.level(l - 1), nrhs,
                               g_own[li].data() + (p - pb) * qp * nrhs,
                               g_own[li - 1].data() + 4 * (p - pb) * qc * nrhs,
                               shifted.data());
      }
    }
    const std::size_t q0 = static_cast<std::size_t>(plan_.level(0).samples);
    leaf_local_expand<T>(ops_, np, q0, (le - lb) * nrhs, g_own[0].data(),
                         y_local.data());
  };

  if (sched == ApplySchedule::kBlockingOrdered) {
    // Baseline (Fig. 8 "no overlap"): drain receives in strict
    // peer-and-level order, performing no local work while waiting —
    // the pre-split implementation's schedule, kept for the ablation.
    for (int l = 0; l < nlev; ++l) {
      const PhaseSchedule& ls = rs.levels[static_cast<std::size_t>(l)];
      for (const PeerRecv& pr : ls.recvs) recv_level_payload(l, pr);
      run_trans(l, ls.local, s_own[static_cast<std::size_t>(l)]);
      for (const PeerRecv& pr : ls.recvs)
        run_trans(l, pr.work, s_gh[static_cast<std::size_t>(l)]);
    }
    run_downward();
    for (const PeerRecv& pr : rs.near.recvs) recv_near_payload(pr);
    run_near_own();
    for (const PeerRecv& pr : rs.near.recvs) run_near_ghosts(pr.work);
    return;
  }

  // --- Overlapped schedule: run everything that depends only on owned
  // data, polling for arrived halos between chunks; then park on
  // wait_any and receive the remaining messages in arrival order. Each
  // accumulation target (the near-field output, every level's incoming
  // panel) still takes its contributions in schedule order — own
  // sources first, then the peers as listed — so a peer's work runs once
  // its message and every earlier one of its phase have landed, and the
  // result does not depend on message timing.
  struct Pending {
    int tag;
    std::size_t phase;  // level, or nlev for the near field
    const PeerRecv* pr;
  };
  std::vector<Pending> pending;
  for (int l = 0; l < nlev; ++l) {
    for (const PeerRecv& pr : rs.levels[static_cast<std::size_t>(l)].recvs)
      pending.push_back({kTagLevel + l, static_cast<std::size_t>(l), &pr});
  }
  for (const PeerRecv& pr : rs.near.recvs)
    pending.push_back({kTagNear, static_cast<std::size_t>(nlev), &pr});
  const std::size_t nphases = static_cast<std::size_t>(nlev) + 1;
  // Per phase: whether its own sources ran, and its next message (an
  // index into `pending`, whose messages are grouped by phase).
  std::vector<char> arrived(pending.size(), 0), own_done(nphases, 0);
  std::vector<std::size_t> next(nphases, pending.size());
  for (std::size_t i = pending.size(); i-- > 0;) next[pending[i].phase] = i;

  auto advance = [&](std::size_t phase) {
    if (!own_done[phase]) return;
    for (std::size_t& i = next[phase];
         i < pending.size() && pending[i].phase == phase && arrived[i]; ++i) {
      if (phase < nphases - 1) {
        const int l = static_cast<int>(phase);
        run_trans(l, pending[i].pr->work, s_gh[phase]);
      } else {
        run_near_ghosts(pending[i].pr->work);
      }
    }
  };
  auto receive = [&](std::size_t i) {
    const Pending& pd = pending[i];
    if (pd.phase < nphases - 1) {
      recv_level_payload(static_cast<int>(pd.phase), *pd.pr);
    } else {
      recv_near_payload(*pd.pr);
    }
    arrived[i] = 1;
    advance(pd.phase);
  };
  auto poll = [&] {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!arrived[i] && comm.probe(rank_base + pending[i].pr->peer,
                                    pending[i].tag)) {
        receive(i);
      }
    }
  };
  auto own = [&](std::size_t phase) {
    own_done[phase] = 1;
    advance(phase);
  };

  // Local work, biggest latency-hiding chunk first: the interior near
  // field is independent of the whole far-field pipeline.
  poll();
  run_near_own();
  own(nphases - 1);
  poll();
  for (int l = 0; l < nlev; ++l) {
    run_trans(l, rs.levels[static_cast<std::size_t>(l)].local,
              s_own[static_cast<std::size_t>(l)]);
    own(static_cast<std::size_t>(l));
    poll();
  }
  // Arrival-order drain of whatever is still in flight. Only the park on
  // wait_any counts as halo wait; the service (recv + work) is accounted
  // by its own spans so compute done during the drain stays compute.
  std::vector<std::pair<int, int>> keys;
  std::vector<std::size_t> waiting;
  for (;;) {
    keys.clear();
    waiting.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (arrived[i]) continue;
      keys.emplace_back(rank_base + pending[i].pr->peer, pending[i].tag);
      waiting.push_back(i);
    }
    if (waiting.empty()) break;
    std::size_t hit;
    {
      obs::SpanScope wait("dist.halo_wait",
                          static_cast<std::int64_t>(waiting.size()),
                          obs::Counter::kHaloWaitNs);
      hit = comm.wait_any(keys);
    }
    receive(waiting[hit]);
  }
  run_downward();
}

void PartitionedMlfma::apply_herm(Comm& comm, ccspan x_local, cspan y_local,
                                  int rank_base) const {
  apply_herm_block(comm, x_local, y_local, 1, rank_base);
}

void PartitionedMlfma::apply_herm_block(Comm& comm, ccspan x_local,
                                        cspan y_local, std::size_t nrhs,
                                        int rank_base,
                                        ApplySchedule sched) const {
  // The conjugated copy comes from the rank thread's block scratch, so
  // several illumination groups may share one PartitionedMlfma (2-D
  // driver).
  const int rank = comm.rank() - rank_base;
  FFW_CHECK(rank >= 0 && rank < nranks_ && nrhs >= 1);
  const RankSchedule& rs = schedule_[static_cast<std::size_t>(rank)];
  const BlockLayout lo{static_cast<std::size_t>(tree_->pixels_per_leaf()),
                       nrhs, rs.near.owned_end - rs.near.owned_begin};
  ScratchFrame frame;
  const cspan xc = frame.vec(x_local.size());
  block_conj(lo, x_local, xc);
  apply_block(comm, xc, y_local, nrhs, rank_base, sched);
  block_conj(lo, y_local, y_local);
}

}  // namespace ffw
