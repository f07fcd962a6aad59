#include "io/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/check.hpp"

namespace ffw {

namespace {
constexpr char kMagic[8] = {'F', 'F', 'W', 'C', 'K', 'P', 'T', '1'};

bool write_u64(std::FILE* f, std::uint64_t v) {
  return std::fwrite(&v, sizeof v, 1, f) == 1;
}

bool read_u64(std::FILE* f, std::uint64_t& v) {
  return std::fread(&v, sizeof v, 1, f) == 1;
}
}  // namespace

void Checkpoint::put(const std::string& name, ccspan data) {
  arrays_[name] = cvec(data.begin(), data.end());
}

void Checkpoint::put_scalar(const std::string& name, double value) {
  arrays_[name] = cvec{cplx{value, 0.0}};
}

bool Checkpoint::contains(const std::string& name) const {
  return arrays_.count(name) != 0;
}

const cvec& Checkpoint::get(const std::string& name) const {
  auto it = arrays_.find(name);
  FFW_CHECK_MSG(it != arrays_.end(), "missing checkpoint entry");
  return it->second;
}

double Checkpoint::get_scalar(const std::string& name) const {
  const cvec& v = get(name);
  FFW_CHECK(v.size() == 1);
  return v[0].real();
}

bool Checkpoint::save(const std::string& path) const {
  // Write-to-temp + atomic rename: a crash mid-write must never truncate
  // the previous good checkpoint at `path` — the crash-recovery protocol
  // (DESIGN.md Sec. 12) relies on the last completed save staying loadable.
  // The temp name is pid-qualified: with real-process ranks, two
  // supervisor restarts can briefly both run a rank 0 writing the same
  // checkpoint path, and a shared ".tmp" would let one truncate the
  // file mid-write of the other — each then renames its own complete
  // temp, so `path` only ever flips between complete checkpoints.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite(kMagic, sizeof kMagic, 1, f) == 1 &&
            write_u64(f, arrays_.size());
  for (const auto& [name, data] : arrays_) {
    if (!ok) break;
    ok = write_u64(f, name.size()) &&
         std::fwrite(name.data(), 1, name.size(), f) == name.size() &&
         write_u64(f, data.size()) &&
         (data.empty() ||
          std::fwrite(data.data(), sizeof(cplx), data.size(), f) ==
              data.size());
  }
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool Checkpoint::load(const std::string& path) {
  arrays_.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char magic[sizeof kMagic];
  bool ok = std::fread(magic, sizeof magic, 1, f) == 1 &&
            std::memcmp(magic, kMagic, sizeof kMagic) == 0;
  std::uint64_t count = 0;
  ok = ok && read_u64(f, count) && count < (1u << 20);
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    std::uint64_t name_len = 0, data_len = 0;
    ok = read_u64(f, name_len) && name_len < (1u << 16);
    std::string name(name_len, '\0');
    ok = ok && std::fread(name.data(), 1, name_len, f) == name_len &&
         read_u64(f, data_len) && data_len < (std::uint64_t{1} << 32);
    if (!ok) break;
    cvec data(data_len);
    if (data_len) {
      ok = std::fread(data.data(), sizeof(cplx), data_len, f) == data_len;
    }
    if (ok) arrays_[name] = std::move(data);
  }
  std::fclose(f);
  if (!ok) arrays_.clear();
  return ok;
}

bool DbimCheckpoint::save(const std::string& path) const {
  Checkpoint ck;
  ck.put_scalar("iteration", iteration);
  ck.put_scalar("mixed_precision", precision == Precision::kMixed ? 1.0 : 0.0);
  ck.put_scalar("backend", static_cast<double>(static_cast<int>(backend)));
  ck.put("contrast", contrast);
  ck.put("gradient_prev", gradient_prev);
  ck.put("direction", direction);
  cvec hist(residual_history.size());
  for (std::size_t i = 0; i < hist.size(); ++i)
    hist[i] = cplx{residual_history[i], 0.0};
  ck.put("residual_history", hist);
  return ck.save(path);
}

bool DbimCheckpoint::load(const std::string& path) {
  Checkpoint ck;
  if (!ck.load(path)) return false;
  if (!ck.contains("iteration") || !ck.contains("contrast") ||
      !ck.contains("gradient_prev") || !ck.contains("direction") ||
      !ck.contains("residual_history")) {
    return false;
  }
  iteration = static_cast<int>(ck.get_scalar("iteration"));
  // Legacy files (written before the precision policy was recorded)
  // lack this entry; they predate mixed-precision support, so fp64.
  precision = ck.contains("mixed_precision") &&
                      ck.get_scalar("mixed_precision") != 0.0
                  ? Precision::kMixed
                  : Precision::kDouble;
  // Legacy files predate the CBS backend: everything was MLFMA.
  backend = ck.contains("backend")
                ? static_cast<BackendKind>(
                      static_cast<int>(ck.get_scalar("backend")))
                : BackendKind::kMlfma;
  contrast = ck.get("contrast");
  gradient_prev = ck.get("gradient_prev");
  direction = ck.get("direction");
  const cvec& hist = ck.get("residual_history");
  residual_history.resize(hist.size());
  for (std::size_t i = 0; i < hist.size(); ++i)
    residual_history[i] = hist[i].real();
  return true;
}

}  // namespace ffw
