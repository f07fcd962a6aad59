// Checkpoint container and DBIM-state round trips, including corruption
// handling.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "linalg/kernels.hpp"

namespace ffw {
namespace {

TEST(Checkpoint, ArrayRoundTrip) {
  Rng rng(1);
  cvec a(100), b(7);
  rng.fill_cnormal(a);
  rng.fill_cnormal(b);

  Checkpoint out;
  out.put("alpha", a);
  out.put("beta", b);
  out.put_scalar("gamma", 42.5);
  const std::string path = "/tmp/ffw_ckpt_test.bin";
  ASSERT_TRUE(out.save(path));

  Checkpoint in;
  ASSERT_TRUE(in.load(path));
  EXPECT_EQ(in.size(), 3u);
  ASSERT_TRUE(in.contains("alpha"));
  EXPECT_LT(rel_l2_diff(in.get("alpha"), a), 1e-16);
  EXPECT_LT(rel_l2_diff(in.get("beta"), b), 1e-16);
  EXPECT_DOUBLE_EQ(in.get_scalar("gamma"), 42.5);
  EXPECT_FALSE(in.contains("delta"));
  std::remove(path.c_str());
}

TEST(Checkpoint, OverwriteReplaces) {
  Checkpoint ck;
  ck.put_scalar("x", 1.0);
  ck.put_scalar("x", 2.0);
  EXPECT_EQ(ck.size(), 1u);
  EXPECT_DOUBLE_EQ(ck.get_scalar("x"), 2.0);
}

TEST(Checkpoint, EmptyArraysSurvive) {
  Checkpoint out;
  out.put("empty", cvec{});
  const std::string path = "/tmp/ffw_ckpt_empty.bin";
  ASSERT_TRUE(out.save(path));
  Checkpoint in;
  ASSERT_TRUE(in.load(path));
  EXPECT_TRUE(in.contains("empty"));
  EXPECT_TRUE(in.get("empty").empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFile) {
  const std::string path = "/tmp/ffw_ckpt_corrupt.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a checkpoint at all";
  }
  Checkpoint in;
  EXPECT_FALSE(in.load(path));
  EXPECT_EQ(in.size(), 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncatedFile) {
  Rng rng(2);
  cvec a(64);
  rng.fill_cnormal(a);
  Checkpoint out;
  out.put("a", a);
  const std::string path = "/tmp/ffw_ckpt_trunc.bin";
  ASSERT_TRUE(out.save(path));
  // Truncate to half.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto sz = in.tellg();
    std::vector<char> buf(static_cast<std::size_t>(sz) / 2);
    in.seekg(0);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    outf.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  Checkpoint in;
  EXPECT_FALSE(in.load(path));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileFails) {
  Checkpoint in;
  EXPECT_FALSE(in.load("/tmp/ffw_ckpt_does_not_exist.bin"));
}

TEST(Checkpoint, TruncationFuzzEvery64ByteOffset) {
  // A writer killed mid-write leaves a prefix of the file. Every strict
  // prefix must be rejected by load (never half-parsed into arrays), and
  // producing the prefix elsewhere must leave the original loadable —
  // jointly with SaveIsAtomicUnderConcurrentLoad this is the "crash at
  // any byte offset loses nothing" guarantee.
  Rng rng(11);
  Checkpoint out;
  cvec a(300), b(41);
  rng.fill_cnormal(a);
  rng.fill_cnormal(b);
  out.put("a", a);
  out.put("b", b);
  out.put_scalar("iter", 9.0);
  const std::string path = "/tmp/ffw_ckpt_fuzz.bin";
  ASSERT_TRUE(out.save(path));

  std::vector<char> whole;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    whole.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(whole.data(), static_cast<std::streamsize>(whole.size()));
  }
  const std::string trunc_path = "/tmp/ffw_ckpt_fuzz_trunc.bin";
  for (std::size_t cut = 0; cut < whole.size(); cut += 64) {
    {
      std::ofstream f(trunc_path, std::ios::binary | std::ios::trunc);
      f.write(whole.data(), static_cast<std::streamsize>(cut));
    }
    Checkpoint in;
    EXPECT_FALSE(in.load(trunc_path)) << "cut=" << cut;
    EXPECT_EQ(in.size(), 0u) << "cut=" << cut;
    // The prior (complete) file is untouched by the failed writer.
    Checkpoint prior;
    ASSERT_TRUE(prior.load(path)) << "cut=" << cut;
    EXPECT_LT(rel_l2_diff(prior.get("a"), a), 1e-16);
  }
  std::remove(path.c_str());
  std::remove(trunc_path.c_str());
}

TEST(Checkpoint, SaveIsAtomicUnderConcurrentLoad) {
  // Regression for the direct-open save: while a large save is in
  // flight, a reader racing it must only ever observe the previous
  // complete checkpoint or the new complete checkpoint — never a
  // truncated in-progress file. Pre-fix, save() opened the destination
  // itself, so concurrent loads (and any crash mid-write) saw a torn
  // file; now the write lands in <path>.tmp and is renamed into place.
  const std::string path = "/tmp/ffw_ckpt_atomic.bin";
  const std::size_t n = 1u << 19;  // 8 MB payload: a wide write window
  Checkpoint old_ck;
  old_ck.put("gen", cvec(n, cplx{1.0, 0.0}));
  ASSERT_TRUE(old_ck.save(path));

  std::atomic<bool> done{false};
  std::atomic<int> bad{0}, seen{0};
  std::thread reader([&] {
    while (!done.load()) {
      Checkpoint in;
      if (!in.load(path)) {
        ++bad;  // a torn/partial file was visible
        continue;
      }
      ++seen;
      const cvec& g = in.get("gen");
      ASSERT_EQ(g.size(), n);
      const double v = g[0].real();
      EXPECT_TRUE(v == 1.0 || v == 2.0) << v;
    }
  });
  for (int rep = 0; rep < 8; ++rep) {
    Checkpoint next;
    next.put("gen", cvec(n, cplx{2.0, 0.0}));
    ASSERT_TRUE(next.save(path));
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(seen.load(), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedSaveLeavesPriorFileIntact) {
  const std::string path = "/tmp/ffw_ckpt_keep.bin";
  Checkpoint good;
  good.put_scalar("x", 7.0);
  ASSERT_TRUE(good.save(path));

  // Block the temp slot with a directory: the new save cannot even open
  // its scratch file, must report failure, and must not have touched the
  // destination. The scratch name is pid-qualified (concurrent
  // supervisor restarts must not clobber each other's temp — see
  // tests/transport_test.cpp for that regression), so block this
  // process's slot.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  ASSERT_EQ(std::remove(tmp.c_str()), -1);  // no stale temp left behind
  ASSERT_EQ(mkdir(tmp.c_str(), 0700), 0);
  Checkpoint next;
  next.put_scalar("x", 8.0);
  EXPECT_FALSE(next.save(path));
  Checkpoint in;
  ASSERT_TRUE(in.load(path));
  EXPECT_DOUBLE_EQ(in.get_scalar("x"), 7.0);
  rmdir(tmp.c_str());
  std::remove(path.c_str());
}

TEST(DbimCheckpointState, RoundTrip) {
  Rng rng(3);
  DbimCheckpoint out;
  out.iteration = 17;
  out.contrast.resize(50);
  out.gradient_prev.resize(50);
  out.direction.resize(50);
  rng.fill_cnormal(out.contrast);
  rng.fill_cnormal(out.gradient_prev);
  rng.fill_cnormal(out.direction);
  out.residual_history = {1.0, 0.5, 0.25, 0.125};

  const std::string path = "/tmp/ffw_ckpt_dbim.bin";
  ASSERT_TRUE(out.save(path));
  DbimCheckpoint in;
  ASSERT_TRUE(in.load(path));
  EXPECT_EQ(in.iteration, 17);
  EXPECT_LT(rel_l2_diff(in.contrast, out.contrast), 1e-16);
  EXPECT_LT(rel_l2_diff(in.direction, out.direction), 1e-16);
  ASSERT_EQ(in.residual_history.size(), 4u);
  EXPECT_DOUBLE_EQ(in.residual_history[3], 0.125);
  std::remove(path.c_str());
}

TEST(DbimCheckpointState, PrecisionPolicyRoundTrips) {
  DbimCheckpoint out;
  out.iteration = 3;
  out.precision = Precision::kMixed;
  out.contrast.resize(8);
  out.gradient_prev.resize(8);
  out.direction.resize(8);
  out.residual_history = {1.0};
  const std::string path = "/tmp/ffw_ckpt_dbim_mixed.bin";
  ASSERT_TRUE(out.save(path));
  DbimCheckpoint in;
  in.precision = Precision::kDouble;
  ASSERT_TRUE(in.load(path));
  EXPECT_EQ(in.precision, Precision::kMixed);
  // Stored under the file key "mixed_precision", so files written before
  // the field was a Precision load unchanged.
  Checkpoint raw;
  ASSERT_TRUE(raw.load(path));
  EXPECT_EQ(raw.get_scalar("mixed_precision"), 1.0);

  out.precision = Precision::kDouble;
  ASSERT_TRUE(out.save(path));
  in.precision = Precision::kMixed;
  ASSERT_TRUE(in.load(path));
  EXPECT_EQ(in.precision, Precision::kDouble);
  std::remove(path.c_str());
}

TEST(DbimCheckpointState, BackendPolicyRoundTrips) {
  DbimCheckpoint out;
  out.iteration = 5;
  out.contrast.resize(8);
  out.gradient_prev.resize(8);
  out.direction.resize(8);
  out.residual_history = {1.0};
  const std::string path = "/tmp/ffw_ckpt_dbim_backend.bin";
  for (const BackendKind k :
       {BackendKind::kMlfma, BackendKind::kCbs, BackendKind::kAuto}) {
    out.backend = k;
    ASSERT_TRUE(out.save(path));
    DbimCheckpoint in;
    in.backend = BackendKind::kAuto;  // stale state must be overwritten
    ASSERT_TRUE(in.load(path));
    EXPECT_EQ(in.backend, k);
  }
  std::remove(path.c_str());
}

TEST(DbimCheckpointState, LegacyFileWithoutPolicyLoadsAsFp64) {
  // Files written before the precision policy existed lack the
  // "mixed_precision" entry; they predate mixed-precision support and
  // must load as fp64 instead of failing.
  Checkpoint legacy;
  legacy.put_scalar("iteration", 2.0);
  legacy.put("contrast", cvec(4));
  legacy.put("gradient_prev", cvec(4));
  legacy.put("direction", cvec(4));
  legacy.put("residual_history", cvec{cplx{1.0, 0.0}, cplx{0.5, 0.0}});
  const std::string path = "/tmp/ffw_ckpt_dbim_legacy.bin";
  ASSERT_TRUE(legacy.save(path));
  DbimCheckpoint in;
  in.precision = Precision::kMixed;  // stale state must be overwritten
  in.backend = BackendKind::kCbs;
  ASSERT_TRUE(in.load(path));
  EXPECT_EQ(in.precision, Precision::kDouble);
  // Pre-multi-backend files ran everything on MLFMA.
  EXPECT_EQ(in.backend, BackendKind::kMlfma);
  EXPECT_EQ(in.iteration, 2);
  std::remove(path.c_str());
}

TEST(DbimCheckpointState, RejectsWrongSchema) {
  Checkpoint ck;
  ck.put_scalar("iteration", 3.0);  // missing all the arrays
  const std::string path = "/tmp/ffw_ckpt_schema.bin";
  ASSERT_TRUE(ck.save(path));
  DbimCheckpoint in;
  EXPECT_FALSE(in.load(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ffw
