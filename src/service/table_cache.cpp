#include "service/table_cache.hpp"

#include <bit>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"

namespace ffw {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix_double(std::uint64_t& h, double v) {
  fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t hash_positions(const std::vector<Vec2>& tx,
                             const std::vector<Vec2>& rx) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, tx.size());
  for (const Vec2& p : tx) {
    fnv_mix_double(h, p.x);
    fnv_mix_double(h, p.y);
  }
  fnv_mix(h, rx.size());
  for (const Vec2& p : rx) {
    fnv_mix_double(h, p.x);
    fnv_mix_double(h, p.y);
  }
  return h;
}

std::size_t TableKeyHash::operator()(const TableKey& k) const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(k.kind));
  fnv_mix(h, static_cast<std::uint64_t>(k.nx));
  fnv_mix_double(h, k.pixel_h);
  fnv_mix(h, static_cast<std::uint64_t>(k.leaf_pixel_side));
  fnv_mix_double(h, k.digits);
  fnv_mix_double(h, k.oversample);
  fnv_mix(h, static_cast<std::uint64_t>(k.interp_width));
  fnv_mix(h, static_cast<std::uint64_t>(k.precision));
  fnv_mix(h, k.geometry_hash);
  return static_cast<std::size_t>(h);
}

TransceiverTables::TransceiverTables(const Grid& g, std::vector<Vec2> tx,
                                     std::vector<Vec2> rx)
    : grid(g), trx(grid, std::move(tx), std::move(rx)) {}

OperatorTableCache::OperatorTableCache(std::size_t budget_bytes)
    : budget_(budget_bytes) {}

std::shared_ptr<const void> OperatorTableCache::acquire(
    const TableKey& key, const std::function<Built()>& build) {
  std::promise<std::shared_ptr<const void>> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Hit — including a build still in flight: the waiter pays nothing
      // but the wait, which is the whole point of single-flight.
      ++hits_;
      obs::add(obs::Counter::kTableCacheHits, 1);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      auto future = it->second.future;
      lock.unlock();
      return future.get();  // rethrows the builder's exception, if any
    }
    ++misses_;
    obs::add(obs::Counter::kTableCacheMisses, 1);
    lru_.push_front(key);
    Entry e;
    e.future = promise.get_future().share();
    e.lru_it = lru_.begin();
    entries_.emplace(key, std::move(e));
  }
  // Build outside the lock: misses on unrelated keys proceed in
  // parallel, and a slow build never blocks cache hits.
  Built built;
  try {
    built = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.erase(it->second.lru_it);
        entries_.erase(it);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    build_seconds_ += built.build_seconds;
    obs::add(obs::Counter::kTableBuildNs,
             static_cast<std::int64_t>(built.build_seconds * 1e9));
    // clear() may have raced the build and dropped the entry — then the
    // artifact is simply handed to the waiters without being resident.
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.bytes = built.bytes;
      it->second.ready = true;
      bytes_ += built.bytes;
      evict_locked();
    }
  }
  promise.set_value(built.ptr);
  return built.ptr;
}

void OperatorTableCache::evict_locked() {
  // Walk from the LRU end; never touch in-flight builds or the MRU
  // entry (evicting what was just inserted would thrash).
  auto it = lru_.end();
  while (bytes_ > budget_ && it != lru_.begin()) {
    --it;
    if (it == lru_.begin()) break;  // keep the MRU entry resident
    auto eit = entries_.find(*it);
    FFW_CHECK(eit != entries_.end());
    if (!eit->second.ready) continue;
    bytes_ -= eit->second.bytes;
    ++evictions_;
    obs::add(obs::Counter::kTableCacheEvictions, 1);
    entries_.erase(eit);
    it = lru_.erase(it);
  }
}

std::shared_ptr<const OperatorTables> OperatorTableCache::mlfma_tables(
    const Grid& grid, int leaf_pixel_side, const MlfmaParams& params) {
  TableKey key;
  key.kind = TableKey::Kind::kMlfma;
  key.nx = grid.nx();
  key.pixel_h = grid.h();
  key.leaf_pixel_side = leaf_pixel_side;
  key.digits = params.digits;
  key.oversample = params.oversample;
  key.interp_width = params.interp_width;
  key.precision = params.precision;
  auto ptr = acquire(key, [&]() -> Built {
    auto tables =
        std::make_shared<const OperatorTables>(grid, leaf_pixel_side, params);
    return {tables, tables->bytes(), tables->build_seconds()};
  });
  return std::static_pointer_cast<const OperatorTables>(ptr);
}

std::shared_ptr<const CbsTables> OperatorTableCache::cbs_tables(
    const Grid& grid) {
  TableKey key;
  key.kind = TableKey::Kind::kCbs;
  key.nx = grid.nx();
  key.pixel_h = grid.h();
  auto ptr = acquire(key, [&]() -> Built {
    auto tables = std::make_shared<const CbsTables>(grid);
    return {tables, tables->bytes(), tables->build_seconds};
  });
  return std::static_pointer_cast<const CbsTables>(ptr);
}

std::shared_ptr<const TransceiverTables> OperatorTableCache::transceiver_tables(
    const Grid& grid, const std::vector<Vec2>& tx,
    const std::vector<Vec2>& rx) {
  TableKey key;
  key.kind = TableKey::Kind::kTransceivers;
  key.nx = grid.nx();
  key.pixel_h = grid.h();
  key.geometry_hash = hash_positions(tx, rx);
  auto ptr = acquire(key, [&]() -> Built {
    const Timer timer;
    auto tables = std::make_shared<const TransceiverTables>(grid, tx, rx);
    return {tables, tables->bytes(), timer.seconds()};
  });
  return std::static_pointer_cast<const TransceiverTables>(ptr);
}

void OperatorTableCache::set_budget(std::size_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget_bytes;
  evict_locked();
}

void OperatorTableCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight builds keep their promise; dropping the entry just means
  // the next lookup rebuilds. Live hand-outs stay valid (shared_ptr).
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

OperatorTableCache::Stats OperatorTableCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.budget = budget_;
  s.build_seconds = build_seconds_;
  return s;
}

}  // namespace ffw
