#include "parallel/parallel_for.hpp"

#include <atomic>
#include <thread>

namespace ffw {

namespace {
std::atomic<int> g_thread_cap{0};
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int set_num_threads(int n) { return g_thread_cap.exchange(n < 0 ? 0 : n); }

int num_threads() {
  const int cap = g_thread_cap.load();
  return cap == 0 ? hardware_threads() : cap;
}

}  // namespace ffw
