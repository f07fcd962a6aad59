// Common substrate: RNG determinism and statistics, timers, table
// formatting, Vec2 arithmetic, the library thread cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "parallel/parallel_for.hpp"

namespace ffw {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformRangeAndMoments) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, ComplexNormalIsIsotropic) {
  Rng rng(10);
  cplx mean{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) mean += rng.cnormal();
  mean /= static_cast<double>(n);
  EXPECT_LT(std::abs(mean), 0.03);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double s = t.seconds();
  EXPECT_GE(s, 0.025);
  EXPECT_LT(s, 3.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.025);
}

TEST(Stopwatch, AccumulatesWindows) {
  Stopwatch w;
  w.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  w.stop();
  const double first = w.total();
  EXPECT_GE(first, 0.010);
  w.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  w.stop();
  EXPECT_GE(w.total(), first + 0.010);
  w.clear();
  EXPECT_EQ(w.total(), 0.0);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"xxxx", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a    | bbbb"), std::string::npos);
  EXPECT_NE(s.find("xxxx | y"), std::string::npos);
  EXPECT_NE(s.find("-----+-----"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1 |   | "), std::string::npos);
}

TEST(Formatting, Helpers) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_speedup(4.0), "4.00x");
  EXPECT_EQ(fmt_sci(0.000123, 1), "1.2e-04");
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{3.0, 4.0}, b{1.0, -2.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
  EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
  EXPECT_EQ((2.0 * b), (Vec2{2.0, -4.0}));
  EXPECT_DOUBLE_EQ(dot(a, b), -5.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_NEAR(angle_of(Vec2{0.0, 1.0}), pi / 2, 1e-14);
}

TEST(ThreadCap, SetReturnsThePreviousCap) {
  const int saved = set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  EXPECT_EQ(set_num_threads(0), 2);
  EXPECT_EQ(num_threads(), hardware_threads());
  EXPECT_EQ(set_num_threads(saved), 0);
}

TEST(ThreadCap, ParallelForRunsNoMoreThreadsThanTheCap) {
  const int cap = std::min(2, hardware_threads());
  const int saved = set_num_threads(cap);
  std::atomic<int> widest{0};
  parallel_for(0, 16, [&](std::size_t) {
    const int rank = thread_rank() + 1;
    int seen = widest.load();
    while (rank > seen && !widest.compare_exchange_weak(seen, rank)) {
    }
  });
  set_num_threads(saved);
  EXPECT_LE(widest.load(), cap);
}

}  // namespace
}  // namespace ffw
