#include "mlfma/engine.hpp"

#include <algorithm>
#include <array>

#include "linalg/block.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/scratch.hpp"
#include "mlfma/farfield.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

const char* phase_name(MlfmaPhase p) {
  switch (p) {
    case MlfmaPhase::kExpansion: return "Multipole Expansion";
    case MlfmaPhase::kAggregation: return "Aggregation";
    case MlfmaPhase::kTranslation: return "Translation";
    case MlfmaPhase::kDisaggregation: return "Disaggregation";
    case MlfmaPhase::kLocalExpansion: return "Local Expansion";
    case MlfmaPhase::kNearField: return "Near-Field Interactions";
    default: return "?";
  }
}

double PhaseTimes::total() const {
  double s = 0.0;
  for (double v : seconds) s += v;
  return s;
}

void PhaseTimes::clear() {
  seconds.fill(0.0);
  applications = 0;
}

namespace {

class PhaseTimerScope {
 public:
  PhaseTimerScope(PhaseTimes& t, MlfmaPhase p)
      : acc_(t.seconds[static_cast<std::size_t>(p)]) {}
  ~PhaseTimerScope() { acc_ += timer_.seconds(); }

 private:
  double& acc_;
  Timer timer_;
};
}  // namespace

MlfmaEngine::MlfmaEngine(const QuadTree& tree, const MlfmaParams& params)
    : MlfmaEngine(std::make_shared<const OperatorTables>(tree, params)) {}

MlfmaEngine::MlfmaEngine(std::shared_ptr<const OperatorTables> tables)
    : tables_(std::move(tables)), tree_(&tables_->tree()),
      plan_(tables_->plan()), ops_(tables_->ops()),
      near_(tables_->nearfield()) {
  const std::size_t nlev = static_cast<std::size_t>(tree_->num_levels());
  s_.resize(nlev);
  g_.resize(nlev);
  s32_.resize(nlev);
  g32_.resize(nlev);
  ensure_block_capacity(1);
}

void MlfmaEngine::ensure_block_capacity(std::size_t nrhs) {
  const bool mixed = precision() == Precision::kMixed;
  block_capacity_ = std::max(block_capacity_, nrhs);
  for (int l = 0; l < tree_->num_levels(); ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    const std::size_t q = static_cast<std::size_t>(plan_.level(l).samples);
    const std::size_t need =
        q * tree_->level(l).num_clusters * block_capacity_;
    if (mixed) {
      if (s32_[li].size() < need) s32_[li].resize(need);
      if (g32_[li].size() < need) g32_[li].resize(need);
    } else {
      if (s_[li].size() < need) s_[li].resize(need);
      if (g_[li].size() < need) g_[li].resize(need);
    }
  }
}

void MlfmaEngine::shrink_workspace() {
  auto drop_all = [](auto& vecs) {
    for (auto& v : vecs) {
      v.clear();
      v.shrink_to_fit();
    }
  };
  drop_all(s_);
  drop_all(g_);
  drop_all(s32_);
  drop_all(g32_);
  block_capacity_ = 1;
  ensure_block_capacity(1);
}

std::size_t MlfmaEngine::bytes() const {
  std::size_t s = tables_->bytes();
  for (const auto& v : s_) s += v.size() * sizeof(cplx);
  for (const auto& v : g_) s += v.size() * sizeof(cplx);
  for (const auto& v : s32_) s += v.size() * sizeof(cplx32);
  for (const auto& v : g32_) s += v.size() * sizeof(cplx32);
  return s;
}

template <typename T>
void MlfmaEngine::upward_pass_t(const std::complex<T>* x, std::size_t nrhs) {
  using C = std::complex<T>;
  const std::size_t np = static_cast<std::size_t>(tree_->pixels_per_leaf());
  const std::size_t nleaf = tree_->num_leaves();
  const std::size_t q0 = static_cast<std::size_t>(plan_.level(0).samples);
  auto& s = s_panels<T>();

  {
    PhaseTimerScope t(times_, MlfmaPhase::kExpansion);
    FFW_TRACE_SPAN("mlfma.expand");
    // S0 = E (q0 x np) * X (np x nleaf*nrhs): one GEMM over a leaf range
    // per thread. In the block layout consecutive leaves' np x nrhs input
    // panels are contiguous, so a leaf range is just a wider GEMM.
    const std::size_t nthreads =
        std::min<std::size_t>(static_cast<std::size_t>(num_threads()), nleaf);
    const std::size_t chunk = (nleaf + nthreads - 1) / nthreads;
    parallel_for(0, nthreads, [&](std::size_t tid) {
      const std::size_t c0 = tid * chunk;
      const std::size_t c1 = std::min(nleaf, c0 + chunk);
      if (c0 >= c1) return;
      leaf_expand<T>(ops_, np, q0, (c1 - c0) * nrhs, x + c0 * np * nrhs,
                     s[0].data() + c0 * q0 * nrhs);
    });
  }

  PhaseTimerScope t(times_, MlfmaPhase::kAggregation);
  for (int l = 0; l + 1 < tree_->num_levels(); ++l) {
    FFW_TRACE_SPAN("mlfma.aggregate", l);
    const LevelOperators& ops = ops_.level(l);
    const std::size_t qc = static_cast<std::size_t>(ops.samples);
    const std::size_t qp =
        static_cast<std::size_t>(plan_.level(l + 1).samples);
    const C* src = s[static_cast<std::size_t>(l)].data();
    C* dst = s[static_cast<std::size_t>(l) + 1].data();
    parallel_for(0, tree_->level(l + 1).num_clusters, [&](std::size_t p) {
      aggregate_parent<T>(ops, nrhs, src + 4 * p * qc * nrhs,
                          dst + p * qp * nrhs);
    });
  }
}

template <typename T>
void MlfmaEngine::translation_pass_t(std::size_t nrhs) {
  using C = std::complex<T>;
  PhaseTimerScope t(times_, MlfmaPhase::kTranslation);
  for (int l = 0; l < tree_->num_levels(); ++l) {
    FFW_TRACE_SPAN("mlfma.translate", l);
    const TreeLevel& lvl = tree_->level(l);
    const LevelOperators& ops = ops_.level(l);
    const std::size_t q = static_cast<std::size_t>(ops.samples);
    const C* src = s_panels<T>()[static_cast<std::size_t>(l)].data();
    C* dst = g_panels<T>()[static_cast<std::size_t>(l)].data();
    // One register-tiled sum per cluster over its interaction list. On
    // the mixed path every product is fp32 and the sum across them fp64,
    // rounded once into the fp32 panel: the translation's
    // fp64-accumulation boundary.
    parallel_for_dynamic(0, lvl.num_clusters, [&](std::size_t c) {
      FFW_CHECK(lvl.far_begin[c + 1] - lvl.far_begin[c] <= TreeLevel::kMaxFar);
      std::array<DiagTerm<T>, TreeLevel::kMaxFar> terms;
      std::size_t count = 0;
      for (std::uint32_t e = lvl.far_begin[c]; e < lvl.far_begin[c + 1]; ++e) {
        const FarEntry& fe = lvl.far[e];
        terms[count++] = {ops.trans<T>()[fe.trans_type].data(),
                          src + static_cast<std::size_t>(fe.src) * q * nrhs};
      }
      diag_sum_t<T, T>(q, nrhs, terms.data(), count, q, dst + c * q * nrhs, q,
                       /*accumulate=*/false);
    });
  }
}

template <typename T>
void MlfmaEngine::downward_pass_t(cspan y, std::size_t nrhs) {
  using C = std::complex<T>;
  const std::size_t np = static_cast<std::size_t>(tree_->pixels_per_leaf());
  const std::size_t nleaf = tree_->num_leaves();
  auto& g = g_panels<T>();

  {
    PhaseTimerScope t(times_, MlfmaPhase::kDisaggregation);
    for (int l = tree_->num_levels() - 1; l >= 1; --l) {
      FFW_TRACE_SPAN("mlfma.disaggregate", l);
      const LevelOperators& child_ops = ops_.level(l - 1);
      const std::size_t qp = static_cast<std::size_t>(plan_.level(l).samples);
      const std::size_t qc = static_cast<std::size_t>(child_ops.samples);
      const C* src = g[static_cast<std::size_t>(l)].data();
      C* dst = g[static_cast<std::size_t>(l) - 1].data();
      // One shifted parent panel per thread.
      ScratchFrame frame;
      const std::size_t slots = static_cast<std::size_t>(num_threads());
      const std::span<C> shifted = frame.take<C>(slots * qp * nrhs);
      parallel_for(0, tree_->level(l).num_clusters, [&](std::size_t p) {
        FFW_DCHECK(static_cast<std::size_t>(thread_rank()) < slots);
        disaggregate_parent<T>(
            child_ops, nrhs, src + p * qp * nrhs, dst + 4 * p * qc * nrhs,
            shifted.data() +
                static_cast<std::size_t>(thread_rank()) * qp * nrhs);
      });
    }
  }

  PhaseTimerScope t(times_, MlfmaPhase::kLocalExpansion);
  FFW_TRACE_SPAN("mlfma.local_expand");
  const std::size_t q0 = static_cast<std::size_t>(plan_.level(0).samples);
  const std::size_t nthreads =
      std::min<std::size_t>(static_cast<std::size_t>(num_threads()), nleaf);
  const std::size_t chunk = (nleaf + nthreads - 1) / nthreads;
  parallel_for(0, nthreads, [&](std::size_t tid) {
    const std::size_t c0 = tid * chunk;
    const std::size_t c1 = std::min(nleaf, c0 + chunk);
    if (c0 >= c1) return;
    // Y(np x cols) += R (np x q0) * G0 (q0 x cols), cols = leaves * nrhs.
    leaf_local_expand<T>(ops_, np, q0, (c1 - c0) * nrhs,
                         g[0].data() + c0 * q0 * nrhs,
                         y.data() + c0 * np * nrhs);
  });
}

template <typename T>
void MlfmaEngine::near_pass_t(const std::complex<T>* x, cspan y,
                              std::size_t nrhs) {
  PhaseTimerScope t(times_, MlfmaPhase::kNearField);
  FFW_TRACE_SPAN("mlfma.nearfield");
  near_.apply_box<T>(leaf_box(0, tree_->num_leaves()), x, y.data(), nrhs);
}

void MlfmaEngine::apply(ccspan x, cspan y) { apply_block(x, y, 1); }

void MlfmaEngine::apply_block(ccspan x, cspan y, std::size_t nrhs) {
  const std::size_t n = tree_->grid().num_pixels();
  FFW_CHECK(nrhs >= 1);
  FFW_CHECK(x.size() == n * nrhs && y.size() == n * nrhs);
  ensure_block_capacity(nrhs);
  const BlockLayout lo{static_cast<std::size_t>(tree_->pixels_per_leaf()),
                       nrhs, tree_->num_leaves()};
  block_zero(lo, y);

  if (precision() == Precision::kMixed) {
    ScratchFrame frame;
    const cspan32 x32 = frame.take<cplx32>(x.size());
    {
      // Narrow the input block once per apply; counted with the leaf
      // expansion since it is the pipeline's entry stage.
      PhaseTimerScope t(times_, MlfmaPhase::kExpansion);
      narrow(x, x32);
    }
    if (tree_->num_levels() > 0) {
      upward_pass_t<float>(x32.data(), nrhs);
      translation_pass_t<float>(nrhs);
      downward_pass_t<float>(y, nrhs);
    }
    near_pass_t<float>(x32.data(), y, nrhs);
  } else {
    if (tree_->num_levels() > 0) {
      upward_pass_t<double>(x.data(), nrhs);
      translation_pass_t<double>(nrhs);
      downward_pass_t<double>(y, nrhs);
    }
    near_pass_t<double>(x.data(), y, nrhs);
  }
  times_.applications += static_cast<std::uint64_t>(nrhs);
  obs::add(obs::Counter::kMlfmaApplications, static_cast<std::uint64_t>(nrhs));
}

void MlfmaEngine::apply_herm(ccspan x, cspan y) { apply_herm_block(x, y, 1); }

void MlfmaEngine::apply_herm_block(ccspan x, cspan y, std::size_t nrhs) {
  // G0 is complex-symmetric: G0^T = G0, hence G0^H = conj(G0) and
  // G0^H x = conj(G0 conj(x)). The conjugated copy is block scratch.
  FFW_CHECK(nrhs >= 1 && x.size() == y.size());
  const BlockLayout lo{static_cast<std::size_t>(tree_->pixels_per_leaf()),
                       nrhs, tree_->num_leaves()};
  ScratchFrame frame;
  const cspan xc = frame.vec(x.size());
  block_conj(lo, x, xc);
  apply_block(xc, y, nrhs);
  block_conj(lo, y, y);
}

}  // namespace ffw
