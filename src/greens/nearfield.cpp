#include "greens/nearfield.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "common/check.hpp"
#include "common/morton.hpp"
#include "greens/greens.hpp"
#include "linalg/gemm.hpp"
#include "linalg/scratch.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {

namespace {

/// b = a0 + w ap + conj(w) am = a0 + Re(w) (ap + am) + i Im(w) (ap - am)
/// over n complex entries: one row-operator B_ty(K) of apply_box (am, a0,
/// ap the types at tx = -1, 0, 1, w = e^{2 pi i K / M}), formed in fp64
/// and rounded once to T.
template <typename T>
void row_operator(std::size_t n, cplx w, const std::complex<T>* am,
                  const std::complex<T>* a0, const std::complex<T>* ap,
                  std::complex<T>* b) {
  const T* ms = reinterpret_cast<const T*>(am);
  const T* zs = reinterpret_cast<const T*>(a0);
  const T* ps = reinterpret_cast<const T*>(ap);
  T* bs = reinterpret_cast<T*>(b);
  const double wr = w.real(), wi = w.imag();
#ifdef _OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double pr = ps[i], pi_ = ps[i + 1], mr = ms[i], mi = ms[i + 1];
    bs[i] = static_cast<T>(zs[i] + wr * (pr + mr) - wi * (pi_ - mi));
    bs[i + 1] = static_cast<T>(zs[i + 1] + wr * (pi_ + mi) + wi * (pr - mr));
  }
}

}  // namespace

LeafBox leaf_box(std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  FFW_CHECK_MSG(end > begin && std::has_single_bit(n) && begin % n == 0,
                "a near-field box is an aligned power-of-two Morton range");
  std::uint32_t x0, y0, x1, y1;
  morton_decode(static_cast<std::uint32_t>(begin), x0, y0);
  morton_decode(static_cast<std::uint32_t>(end - 1), x1, y1);
  LeafBox box{x0, y0, x1 + 1 - x0, y1 + 1 - y0, begin};
  FFW_CHECK(box.width * box.height == n);
  return box;
}

NearFieldOperators::NearFieldOperators(const QuadTree& tree,
                                       Precision precision)
    : precision_(precision),
      np_(static_cast<std::size_t>(tree.pixels_per_leaf())) {
  const Grid& grid = tree.grid();
  const double w = tree.leaf_pixel_side() * grid.h();  // cluster width
  const int np = tree.pixels_per_leaf();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      CMatrix m(np, np);
      const Vec2 shift{dx * w, dy * w};
      for (int q = 0; q < np; ++q) {  // source pixel in neighbour cluster
        const Vec2 rs = tree.local_pixel_offset(q) + shift;
        for (int p = 0; p < np; ++p) {  // destination pixel
          const Vec2 rd = tree.local_pixel_offset(p);
          m(static_cast<std::size_t>(p), static_cast<std::size_t>(q)) =
              g0_pixel(grid, rd, rs);
        }
      }
      mats_[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] = std::move(m);
    }
  }

  if (precision_ == Precision::kMixed) {
    for (int t = 0; t < kNumTypes; ++t) {
      const CMatrix& m = mats_[static_cast<std::size_t>(t)];
      cvec32& m32 = mats32_[static_cast<std::size_t>(t)];
      m32.resize(m.rows() * m.cols());
      for (std::size_t i = 0; i < m32.size(); ++i) m32[i] = narrow(m.data()[i]);
      mats_[static_cast<std::size_t>(t)] = CMatrix{};
    }
  }
}

template <typename T>
void NearFieldOperators::apply_box(const LeafBox& box,
                                   const std::complex<T>* x, cplx* y,
                                   std::size_t nrhs) const {
  using C = std::complex<T>;
  const std::size_t nw = box.width, nh = box.height, m = nw + 1;
  const std::size_t np = np_, np2 = np_ * np_, ld = np_ * nrhs;
  if (nw == 0 || nh == 0) return;
  const auto panel = [&](std::size_t px, std::size_t py) {
    return (morton_encode(static_cast<std::uint32_t>(box.x0 + px),
                          static_cast<std::uint32_t>(box.y0 + py)) -
            box.base) *
           ld;
  };
  // Leaves 2j and 2j + 1 of a row are Morton neighbours, so their panels
  // form one matrix of two columns (ld apart): the transforms take leaf
  // pairs when the box starts and ends on a pair boundary, single leaves
  // otherwise.
  const std::size_t g = box.x0 % 2 == 0 && nw % 2 == 0 ? 2 : 1;
  const std::size_t ng = nw / g;
  const bool par = nw * nh * ld >= kMinParallelElems && num_threads() > 1;
  const std::size_t slots = par ? static_cast<std::size_t>(num_threads()) : 1;
  const std::size_t chunk = std::min(nrhs, kChunkColumns);

  // The small buffers are carved from one block-scratch span: forward
  // twiddles fw(px, K) (ld nw), inverse ones iw(K, px) / M (ld M), the
  // forward transform's terms and the per-thread row-operators. xh(K,
  // py) and yh(K, py) of one column chunk (at panel py * M + K) are
  // spans of their own.
  std::size_t bytes = 0;
  const auto carve = [&bytes](std::size_t n, std::size_t size) {
    const std::size_t at = bytes;
    bytes += (n * size + ScratchFrame::kAlign - 1) &
             ~(ScratchFrame::kAlign - 1);
    return at;
  };
  const std::size_t at_fw = carve(nw * m, sizeof(C)),
                    at_iw = carve(m * nw, sizeof(cplx)),
                    at_terms = carve(nh * ng, sizeof(GemmTerm<T>)),
                    at_ops = carve(slots * 3 * np2, sizeof(C));
  ScratchFrame frame;
  std::byte* const base = frame.take<std::byte>(bytes).data();
  C* const fw = reinterpret_cast<C*>(base + at_fw);
  cplx* const iw = reinterpret_cast<cplx*>(base + at_iw);
  GemmTerm<T>* const fterms = reinterpret_cast<GemmTerm<T>*>(base + at_terms);
  C* const rowops = reinterpret_cast<C*>(base + at_ops);
  C* const xh = frame.take<C>(nh * m * np * chunk).data();
  cplx* const yh = frame.vec(nh * m * np * chunk).data();

  // Angles are reduced mod M before the sincos.
  const auto twiddle = [m](std::size_t k, std::size_t p, double sign) {
    return std::polar(1.0, sign * 2.0 * pi * static_cast<double>(k * p % m) /
                               static_cast<double>(m));
  };
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t p = 0; p < nw; ++p) {
      fw[k * nw + p] = to_scalar<T>(twiddle(k, p, -1.0));
      iw[p * m + k] = twiddle(k, p, 1.0) / static_cast<double>(m);
    }
  }

  const auto run = [&](std::size_t n, const auto& body) {
    if (par) {
      parallel_for_dynamic(0, n, body);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
  };
  // Products over (K, row band); the bands only spread the work, every
  // yh(K, py) is the same sum whatever the banding.
  const std::size_t nbands =
      par ? std::min(nh, (8 * slots + m - 1) / m) : 1;
  const std::size_t band = (nh + nbands - 1) / nbands;

  for (std::size_t c0 = 0; c0 < nrhs; c0 += chunk) {
    const std::size_t nc = std::min(chunk, nrhs - c0), len = np * nc;
    // The forward transform's terms, row by row: leaf group j of row py.
    for (std::size_t py = 0; py < nh; ++py)
      for (std::size_t j = 0; j < ng; ++j)
        fterms[py * ng + j] = {x + panel(j * g, py) + c0 * np, fw + j * g};

    run(nh, [&](std::size_t py) {
      gemm_sum_t<T, T>(len, m, g, fterms + py * ng, ng, ld, nw,
                       xh + py * m * len, len, /*accumulate=*/false);
    });

    run(m * nbands, [&](std::size_t item) {
      const std::size_t k = item / nbands, b = item % nbands;
      const std::size_t r0 = b * band, r1 = std::min(nh, r0 + band);
      if (r0 >= r1) return;
      FFW_DCHECK(!par || static_cast<std::size_t>(thread_rank()) < slots);
      C* ops = rowops +
               (par ? static_cast<std::size_t>(thread_rank()) : 0) * 3 * np2;
      for (int ty = 0; ty < 3; ++ty)
        row_operator<T>(np2, twiddle(k, 1, 1.0), type_data<T>(ty * 3),
                        type_data<T>(ty * 3 + 1), type_data<T>(ty * 3 + 2),
                        ops + static_cast<std::size_t>(ty) * np2);
      for (std::size_t py = r0; py < r1; ++py) {
        std::array<GemmTerm<T>, 3> terms;
        std::size_t count = 0;
        for (std::size_t ty = 0; ty < 3; ++ty) {
          if (py + ty < 1 || py + ty > nh) continue;  // row py + ty - 1
          terms[count++] = {ops + ty * np2, xh + ((py + ty - 1) * m + k) * len};
        }
        gemm_sum_t<T>(np, nc, np, terms.data(), count, np, np,
                      yh + (py * m + k) * len, np, /*accumulate=*/false);
      }
    });

    run(nh, [&](std::size_t py) {
      for (std::size_t j = 0; j < ng; ++j) {
        const GemmTerm<double> term{yh + py * m * len, iw + j * g * m};
        gemm_sum_t<double>(len, g, m, &term, 1, len, m,
                           y + panel(j * g, py) + c0 * np, ld);
      }
    });
  }
}

template void NearFieldOperators::apply_box<double>(const LeafBox&,
                                                    const cplx*, cplx*,
                                                    std::size_t) const;
template void NearFieldOperators::apply_box<float>(const LeafBox&,
                                                   const cplx32*, cplx*,
                                                   std::size_t) const;

std::size_t NearFieldOperators::bytes() const {
  std::size_t s = 0;
  for (const auto& m : mats_) s += m.bytes();
  for (const auto& m : mats32_) s += m.size() * sizeof(cplx32);
  return s;
}

}  // namespace ffw
