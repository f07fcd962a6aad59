// Per-thread block scratch: the one home of the O(N * nrhs) temporaries
// of a Krylov solve or a DBIM pass (DESIGN.md Sec. 13, "Block
// temporaries").
//
// Every thread owns a grow-only set of slots (heap blocks). A
// ScratchFrame opened on the thread hands out aligned spans, each from
// the free slot that fits best (a slot grows when none fits), and frees
// all of them when it closes. Frames nest strictly LIFO — a callee's
// frame closes before its caller's — so a Krylov solve inside a pass
// reuses the slots the pass does not hold. The spans of a DBIM step come
// in a few sizes, so after the first steps the slots hold the step's
// live set and later steps of the same shape allocate nothing; the same
// sizes also come back from the heap's free blocks after a release.
//
// Spans are uninitialised: a caller writes every element it reads.
// Only the thread that opened a frame may take from it; code that runs
// inside a parallel_for body does not open frames.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "common/types.hpp"

namespace ffw {

class ScratchFrame {
 public:
  /// Alignment of every span handed out.
  static constexpr std::size_t kAlign = 64;

  ScratchFrame();
  /// Returns the frame's spans to the arena; FFW_CHECKs that this is the
  /// innermost open frame of the thread.
  ~ScratchFrame();
  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;

  /// n uninitialised elements, valid until this frame closes.
  template <typename T>
  std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  alignof(T) <= kAlign);
    return {static_cast<T*>(take_bytes(n * sizeof(T))), n};
  }
  /// The complex block vectors of the solvers.
  cspan vec(std::size_t n) { return take<cplx>(n); }

 private:
  void* take_bytes(std::size_t bytes);

  std::size_t depth_;  // this frame's nesting depth on the thread
  std::size_t top_;    // first slot of this frame
};

/// Bytes of scratch storage the calling thread holds.
std::size_t scratch_bytes();

/// Returns the calling thread's scratch storage to the allocator. A
/// no-op while a frame is open on the thread (its spans are live).
void scratch_release();

}  // namespace ffw
