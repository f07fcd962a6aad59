// MLFMA quad-tree geometry over the pixel grid (paper Sec. III-B).
//
// * Leaf clusters are 8x8 pixels (0.8 lambda at lambda/10 sampling),
//   matching the paper's strong-scaling setup ("each lowest-level
//   cluster involves 64 pixels").
// * Leaf clusters are stored in Morton order; the level-l cluster index
//   of a leaf is its Morton code shifted right by 2l, so parents own a
//   contiguous range of descendants — this is what makes the 16-way
//   sub-tree partitioning communication-free in aggregation (Sec. IV-A).
// * Levels are counted from the leaves (level 0) up to the highest
//   *computed* level, which has 4x4 = 16 clusters; translations are done
//   at every computed level. At intermediate levels the far-field
//   (interaction) list of a cluster is the standard FMM list: children
//   of the parent's near neighbours that are not the cluster's own near
//   neighbours (<= 27 entries, paper Fig. 5); at the top level it is all
//   non-adjacent clusters. Both draw their relative offsets from the
//   same 40-element set {(dx,dy): 2 <= max(|dx|,|dy|) <= 3} — the "40
//   unique types of translation operators" of Table I.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "grid/grid.hpp"

namespace ffw {

/// One far-field interaction: source cluster and which of the 40
/// translation-operator types connects it to the destination cluster.
struct FarEntry {
  std::uint32_t src;        // source cluster index (same level)
  std::uint16_t trans_type; // index into the level's translation table
};

/// One near-field interaction at the leaf level: source leaf and which of
/// the 9 near-operator types (3x3 neighbourhood) applies.
struct NearEntry {
  std::uint32_t src;
  std::uint16_t near_type;  // (dy+1)*3 + (dx+1), 0..8; 4 == self
};

struct TreeLevel {
  /// Longest interaction list (paper Fig. 5).
  static constexpr std::size_t kMaxFar = 27;

  int side = 0;                    // clusters per domain side
  std::size_t num_clusters = 0;    // side*side
  double width = 0.0;              // cluster side length (wavelengths)
  // Far-field interaction lists, concatenated; list of cluster c is
  // far[far_begin[c] .. far_begin[c+1]).
  std::vector<std::uint32_t> far_begin;
  std::vector<FarEntry> far;
};

class QuadTree {
 public:
  /// The paper's leaf size: 8x8 pixels = 0.8 lambda at lambda/10
  /// sampling. Tunable (4/8/16 are the sensible values) — the leaf size
  /// trades near-field work (grows as leaf^2 per pixel) against
  /// far-field work (more levels and samples for smaller leaves); see
  /// bench_ablation_leafsize.
  static constexpr int kDefaultLeafPixelSide = 8;
  static constexpr int kTopSide = 4;  // 16 sub-trees at the top level

  /// Builds the tree for `grid`. nx must be a multiple of the leaf side
  /// with nx/leaf_pixel_side a power of two (the paper's domains are all
  /// of this form).
  explicit QuadTree(const Grid& grid,
                    int leaf_pixel_side = kDefaultLeafPixelSide);

  int leaf_pixel_side() const { return leaf_pixel_side_; }
  int pixels_per_leaf() const { return leaf_pixel_side_ * leaf_pixel_side_; }

  const Grid& grid() const { return grid_; }

  /// Number of computed levels (leaf = level 0). Zero when the domain is
  /// too small for any far-field translation (everything is near).
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const TreeLevel& level(int l) const { return levels_[static_cast<std::size_t>(l)]; }

  int leaf_side() const { return leaf_side_; }
  std::size_t num_leaves() const {
    return static_cast<std::size_t>(leaf_side_) * leaf_side_;
  }

  /// Centre of cluster `c` (Morton index) at level l.
  Vec2 cluster_center(int l, std::size_t c) const;

  /// Leaf-level near lists (concatenated, like far lists).
  const std::vector<std::uint32_t>& near_begin() const { return near_begin_; }
  const std::vector<NearEntry>& near() const { return near_; }

  /// Cluster-ordered pixel layout: solver vectors store pixel values as
  /// [leaf 0 (Morton) | leaf 1 | ...], each leaf row-major locally.
  /// perm[cluster_ordered_index] = row_major_index.
  const std::vector<std::uint32_t>& perm() const { return perm_; }
  /// iperm[row_major_index] = cluster_ordered_index.
  const std::vector<std::uint32_t>& iperm() const { return iperm_; }

  /// Gather/scatter between row-major (natural) and cluster order.
  void to_cluster_order(ccspan natural, cspan clustered) const;
  void to_natural_order(ccspan clustered, cspan natural) const;

  /// Position of pixel p (0..pixels_per_leaf-1) relative to its
  /// leaf-cluster centre.
  Vec2 local_pixel_offset(int p) const;

  /// The 40 translation offsets (dx, dy) in cluster units, in
  /// trans_type order, shared by every level.
  static const std::vector<std::pair<int, int>>& translation_offsets();

 private:
  Grid grid_;
  int leaf_pixel_side_;
  int leaf_side_;
  std::vector<TreeLevel> levels_;
  std::vector<std::uint32_t> near_begin_;
  std::vector<NearEntry> near_;
  std::vector<std::uint32_t> perm_, iperm_;
};

}  // namespace ffw
