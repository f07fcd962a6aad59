// Binary checkpointing for long reconstructions.
//
// The paper's runs burn thousands of node-hours; losing a 50-iteration
// DBIM run to a node failure is expensive, so production deployments
// checkpoint the outer-loop state. The format is a minimal tagged
// binary container (magic, version, named complex arrays) — no external
// serialisation library, consistent with the repository's
// no-dependencies rule.
#pragma once

#include <map>
#include <string>

#include "common/types.hpp"
#include "forward/backend.hpp"

namespace ffw {

class Checkpoint {
 public:
  /// Store/overwrite a named complex array.
  void put(const std::string& name, ccspan data);
  /// Store a named scalar (kept as a 1-element array).
  void put_scalar(const std::string& name, double value);

  bool contains(const std::string& name) const;
  /// Fetch a named array; aborts if missing (use contains() to probe).
  const cvec& get(const std::string& name) const;
  double get_scalar(const std::string& name) const;

  /// Serialise to / restore from a file. Returns false on I/O errors or
  /// a malformed/mismatched file (restore leaves *this empty then).
  bool save(const std::string& path) const;
  bool load(const std::string& path);

  std::size_t size() const { return arrays_.size(); }

 private:
  std::map<std::string, cvec> arrays_;
};

/// DBIM outer-loop state round trip: everything needed to resume a
/// reconstruction at iteration k (contrast, previous gradient and
/// direction, residual history), plus the precision policy the run was
/// produced under — resuming a mixed-precision run with a pure-fp64
/// engine (or vice versa) silently changes the convergence trajectory,
/// so the policy is recorded and validated on resume.
struct DbimCheckpoint {
  int iteration = 0;
  /// The run's DbimOptions::precision, stored under the file key
  /// "mixed_precision" (1 = kMixed). Files written before the key
  /// existed load as kDouble (they predate mixed-precision support).
  Precision precision = Precision::kDouble;
  /// Forward-backend policy the run was produced under (DbimOptions::
  /// backend). Resuming under a different policy changes which engine
  /// answers each solve and hence the convergence trajectory, so it is
  /// recorded and validated on resume exactly like the precision policy.
  /// Files written before multi-backend support load as kMlfma.
  BackendKind backend = BackendKind::kMlfma;
  cvec contrast;
  cvec gradient_prev;
  cvec direction;
  rvec residual_history;

  bool save(const std::string& path) const;
  bool load(const std::string& path);
};

}  // namespace ffw
