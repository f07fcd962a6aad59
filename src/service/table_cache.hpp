// Shared operator-table cache: the multi-tenant half of the paper's
// amortisation story. A DBIM reconstruction spends a large, contrast-
// independent setup cost before its first iteration — MLFMA translation/
// interpolation/shift tables and near-field blocks (mlfma/tables.hpp),
// the CBS kernel spectrum and FFT plans (forward/cbs.hpp), and the
// transceiver operators (G_R and the incident panel). All of that state
// is a pure function of (grid, discretisation parameters, precision,
// transceiver geometry), so concurrent reconstructions of
// *different measurement data* over the same configuration can share
// one immutable artifact instead of rebuilding it per job.
//
// The cache is thread-safe with single-flight builds: when several jobs
// miss the same key at once, exactly one builds (outside the lock, so
// unrelated keys build concurrently) and the rest block on a
// shared_future of the same artifact — waiters count as hits, because
// they paid none of the build. Artifacts are handed out as
// shared_ptr<const T>, so LRU eviction under the byte budget can never
// free tables a live engine still references: eviction only drops the
// cache's own reference. Entries still being built and the
// most-recently-used entry are never evicted; a single artifact larger
// than the whole budget is admitted anyway (the budget is a target, not
// an admission gate).
//
// Observability: hits/misses/evictions and accumulated build time are
// published both through stats() and the global obs counters
// (table_cache_hits / table_cache_misses / table_cache_evictions /
// table_build_ns), so service traces show amortisation directly.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "forward/cbs.hpp"
#include "greens/transceivers.hpp"
#include "grid/grid.hpp"
#include "mlfma/plan.hpp"
#include "mlfma/tables.hpp"

namespace ffw {

/// Read-only transceiver artifact: the Transceivers operator with its
/// materialised G_R and incident-field panel (greens/transceivers.hpp),
/// built once so every DBIM iteration of every sharing job projects
/// through the same panels.
struct TransceiverTables {
  TransceiverTables(const Grid& g, std::vector<Vec2> tx, std::vector<Vec2> rx);
  TransceiverTables(const TransceiverTables&) = delete;
  TransceiverTables& operator=(const TransceiverTables&) = delete;

  Grid grid;
  Transceivers trx;

  std::size_t bytes() const { return trx.bytes(); }
};

/// Cache key: every field that the cached artifacts are a function of.
/// Geometry-dependent artifacts (transceivers) fold their positions into
/// geometry_hash; grid spacing enters as the exact bit pattern of h.
struct TableKey {
  enum class Kind : std::uint8_t { kMlfma, kCbs, kTransceivers };
  Kind kind = Kind::kMlfma;
  int nx = 0;
  double pixel_h = 0.0;
  int leaf_pixel_side = 0;
  double digits = 0.0;
  double oversample = 0.0;
  int interp_width = 0;
  Precision precision = Precision::kDouble;
  std::uint64_t geometry_hash = 0;

  bool operator==(const TableKey&) const = default;
};

struct TableKeyHash {
  std::size_t operator()(const TableKey& k) const;
};

class OperatorTableCache {
 public:
  struct Stats {
    std::size_t hits = 0;        // includes waiters on in-flight builds
    std::size_t misses = 0;      // artifacts actually built
    std::size_t evictions = 0;
    std::size_t entries = 0;     // resident (incl. in-flight) entries
    std::size_t bytes = 0;       // resident ready bytes
    std::size_t budget = 0;
    double build_seconds = 0.0;  // accumulated artifact build time
  };

  explicit OperatorTableCache(std::size_t budget_bytes = std::size_t{1} << 30);

  /// MLFMA tables for (grid, leaf, params) — plan, translation/interp/
  /// shift operators and near-field blocks, with an owned QuadTree.
  std::shared_ptr<const OperatorTables> mlfma_tables(
      const Grid& grid, int leaf_pixel_side, const MlfmaParams& params = {});

  /// CBS kernel spectrum + FFT plans (fp64 and fp32) for `grid`.
  std::shared_ptr<const CbsTables> cbs_tables(const Grid& grid);

  /// Transceiver operators (G_R + incident panel) for (grid, tx, rx).
  std::shared_ptr<const TransceiverTables> transceiver_tables(
      const Grid& grid, const std::vector<Vec2>& tx,
      const std::vector<Vec2>& rx);

  /// Shrinks the byte budget (evicting immediately) or grows it.
  void set_budget(std::size_t budget_bytes);
  /// Drops every cache reference (live shared_ptr hand-outs survive).
  void clear();

  Stats stats() const;

 private:
  struct Built {
    std::shared_ptr<const void> ptr;
    std::size_t bytes = 0;
    double build_seconds = 0.0;
  };
  struct Entry {
    std::shared_future<std::shared_ptr<const void>> future;
    std::size_t bytes = 0;
    bool ready = false;
    std::list<TableKey>::iterator lru_it;
  };

  std::shared_ptr<const void> acquire(const TableKey& key,
                                      const std::function<Built()>& build);
  void evict_locked();

  mutable std::mutex mu_;
  std::unordered_map<TableKey, Entry, TableKeyHash> entries_;
  std::list<TableKey> lru_;  // front = most recently used
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  double build_seconds_ = 0.0;
};

/// FNV-1a over the raw positions — the geometry_hash of transceiver keys.
std::uint64_t hash_positions(const std::vector<Vec2>& tx,
                             const std::vector<Vec2>& rx);

}  // namespace ffw
