// Structured errors for invalid engine API usage, following the SimFSError
// convention (simfs/simfs.h): library code throws a typed exception the
// caller can catch and classify -- it never aborts the process on bad
// input. YAFIM_CHECK remains reserved for internal invariants whose
// violation means the engine itself is broken.
#pragma once

#include <stdexcept>
#include <string>

namespace yafim::engine {

enum class EngineErrorKind {
  /// reduce() called on an RDD with no elements (mirrors Spark's throw).
  kEmptyReduce,
  /// collect_as_map() saw the same key in two pairs.
  kDuplicateKey,
  /// sum_arrays() fed arrays of differing widths.
  kArrayWidthMismatch,
};

class EngineError : public std::runtime_error {
 public:
  EngineError(EngineErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  EngineErrorKind kind() const { return kind_; }

 private:
  EngineErrorKind kind_;
};

}  // namespace yafim::engine
