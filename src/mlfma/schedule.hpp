// Plan-time dependency split of the distributed MLFMA apply (paper
// Sec. IV-B / Fig. 8).
//
// The partitioned apply has exactly two kinds of data dependencies:
//
//   * a translation at level l reads the outgoing spectrum of a source
//     cluster — owned by this rank (ready right after the upward pass)
//     or by a peer (ready when that peer's level-l halo message lands);
//   * a near-field block at the leaf level reads a source leaf's pixel
//     values — owned (ready immediately) or a ghost (ready when the
//     peer's near-field halo message lands).
//
// This module resolves those dependencies once, at construction time,
// into flat work lists:
//
//   * `local` entries depend only on owned data and can run while halo
//     messages are still in flight — they are the latency-hiding work of
//     the overlapped schedule (the near phase's `local` list records the
//     own-source split; the apply runs that part as one box of the
//     leaf-row Fourier form, NearFieldOperators::apply_box);
//   * `recvs` groups the remaining entries by the single peer message
//     that unlocks them, so the apply can drain messages in *arrival*
//     order and run each group the moment its message lands.
//
// Slots, not global indices: every entry addresses compact per-rank
// panels. Owned clusters of a level map to slots [0, owned_count) in
// Morton order (slot = cluster - owned_begin); ghost clusters map to
// slots [0, num_ghosts) of a separate ghost panel, sorted by global
// index. Because rank ownership is a monotone partition of the Morton
// order, each peer's ghost contribution is a *contiguous* slot range —
// halo payloads are received straight into the ghost panel with no
// scatter pass. Per-apply panel memory is O(owned + ghost) instead of
// O(global tree).
#pragma once

#include <cstdint>
#include <vector>

#include "grid/quadtree.hpp"

namespace ffw {

/// One resolved unit of halo-dependent work. For translations:
/// g_owned[dst_slot] += T[type] ∘ s[src_slot] (type = translation-
/// operator index). For near field: y[dst_slot] += N[type] x[src_slot]
/// (type = near-operator index). In a `local` list src_slot indexes the
/// owned panel (spectra resp. x_local); in a peer's `work` list it
/// indexes the ghost panel.
struct HaloWork {
  std::uint32_t dst_slot;
  std::uint32_t src_slot;
  std::uint16_t type;
};

/// Outgoing halo to one peer: owned-panel slots to pack, in the order
/// the peer stores them in its ghost panel.
struct PeerSend {
  int peer = -1;
  std::vector<std::uint32_t> slots;
};

/// One inbound peer message and the work it unlocks. The payload is
/// `count` clusters received contiguously into ghost-panel slots
/// [slot_begin, slot_begin + count).
struct PeerRecv {
  int peer = -1;
  std::uint32_t slot_begin = 0;
  std::uint32_t count = 0;
  std::vector<HaloWork> work;
};

/// Dependency split of one interaction phase (one far-field level, or
/// the leaf near field) for one rank.
struct PhaseSchedule {
  std::size_t owned_begin = 0, owned_end = 0;  // global cluster range
  std::size_t num_ghosts = 0;                  // ghost panel width
  std::vector<HaloWork> local;
  std::vector<PeerSend> sends;
  std::vector<PeerRecv> recvs;
};

/// The full dependency-split apply schedule of one rank: one phase per
/// far-field level plus the leaf near-field phase.
struct RankSchedule {
  std::vector<PhaseSchedule> levels;
  PhaseSchedule near;
};

/// Builds the schedule for every rank of a `nranks`-way partition
/// (ownership = contiguous Morton ranges: owner(c) = c * nranks / N_l).
/// `nranks` must divide the top-level cluster count.
std::vector<RankSchedule> build_apply_schedule(const QuadTree& tree,
                                               int nranks);

}  // namespace ffw
