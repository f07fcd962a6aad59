#include "linalg/scratch.hpp"

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ffw {

namespace {

/// One thread's slots: [0, top) hold the spans of the open frames, the
/// rest are free.
struct Arena {
  struct Slot {
    void* raw = nullptr;  // the heap block; `data` is its aligned start
    void* data = nullptr;
    std::size_t cap = 0;
  };
  std::vector<Slot> slots;
  std::size_t top = 0;
  std::size_t depth = 0;  // open frames

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { free_all(); }

  void free_all() {
    for (const Slot& s : slots) ::operator delete(s.raw);
    slots.clear();
  }

  void* take(std::size_t bytes) {
    // Best fit among the free slots, moved to the top: the spans of one
    // step come in a few sizes, so they settle into a set of slots that
    // holds the step's live set, whatever the nesting depth of a call.
    std::size_t pick = slots.size(), largest = slots.size();
    for (std::size_t i = top; i < slots.size(); ++i) {
      const std::size_t cap = slots[i].cap;
      if (cap >= bytes && (pick == slots.size() || cap < slots[pick].cap))
        pick = i;
      if (largest == slots.size() || cap > slots[largest].cap) largest = i;
    }
    if (pick == slots.size()) {
      // Nothing fits: grow the largest free slot, or add one.
      if (largest == slots.size()) {
        slots.emplace_back();
        largest = slots.size() - 1;
      }
      Slot& s = slots[largest];
      ::operator delete(s.raw);
      // A plain heap block, aligned by hand: repeated sizes then reuse
      // the heap's free blocks after a release.
      s.raw = ::operator new(bytes + ScratchFrame::kAlign);
      s.data = reinterpret_cast<void*>(
          (reinterpret_cast<std::uintptr_t>(s.raw) + ScratchFrame::kAlign) &
          ~std::uintptr_t{ScratchFrame::kAlign - 1});
      s.cap = bytes;
      pick = largest;
    }
    std::swap(slots[pick], slots[top]);
    return slots[top++].data;
  }
};

Arena& arena() {
  thread_local Arena a;
  return a;
}

}  // namespace

ScratchFrame::ScratchFrame() {
  Arena& a = arena();
  depth_ = ++a.depth;
  top_ = a.top;
}

ScratchFrame::~ScratchFrame() {
  Arena& a = arena();
  FFW_CHECK_MSG(a.depth == depth_,
                "scratch frames must close in reverse order of opening");
  --a.depth;
  a.top = top_;
}

void* ScratchFrame::take_bytes(std::size_t bytes) {
  Arena& a = arena();
  FFW_CHECK_MSG(a.depth == depth_,
                "scratch taken from a frame that is not the innermost");
  return a.take(bytes);
}

std::size_t scratch_bytes() {
  std::size_t s = 0;
  for (const Arena::Slot& slot : arena().slots) s += slot.cap;
  return s;
}

void scratch_release() {
  Arena& a = arena();
  if (a.depth == 0) a.free_all();
}

}  // namespace ffw
