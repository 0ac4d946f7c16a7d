// A miniature MapReduce framework (the Hadoop stand-in, Sec. VI/VII).
//
// Two execution paths share the same job definition:
//  * LocalRunner (this file): really executes map and reduce functions over
//    the bytes of encoded blocks, reading ONLY original-data regions via
//    core::InputFormat — the correctness path proving that jobs over
//    Galloper-coded data produce byte-identical results to jobs over the
//    plain file.
//  * SimulatedJob (simjob.h): replays the same split structure on the
//    discrete-event cluster to measure completion times (Figs. 9/10).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/input_format.h"
#include "util/bytes.h"

namespace galloper::mr {

struct KeyValue {
  std::string key;
  std::string value;

  bool operator==(const KeyValue&) const = default;
  bool operator<(const KeyValue& o) const {
    return key != o.key ? key < o.key : value < o.value;
  }
};

// Where a mapper's pairs go. The views are valid only for the duration of
// the emit() call (a mapper may point them into its input or a stack
// buffer); a sink copies whatever it keeps.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void emit(std::string_view key, std::string_view value) = 0;
};

// User-provided map function: consumes one split's bytes, emits pairs.
// Derived mappers override the Emitter form and re-expose the collecting
// one with `using Mapper::map;`.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void map(ConstByteSpan input, Emitter& out) const = 0;
  // Appends every emitted pair to `out`, in emission order.
  void map(ConstByteSpan input, std::vector<KeyValue>& out) const;
};

// User-provided reduce function: consumes one key's values.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void reduce(const std::string& key,
                      const std::vector<std::string>& values,
                      std::vector<KeyValue>& out) const = 0;
  // True promises a sum: every value is a decimal unsigned 64-bit integer,
  // and reduce() emits exactly one (key, decimal sum of the values). A
  // runner may then count each key map-side and shuffle one partial sum per
  // key per task (StoreRunner does, and throws CheckError on a value that
  // is not such an integer; LocalRunner never combines).
  virtual bool combinable() const { return false; }
};

// Workload profile for the simulated path: how expensive map/reduce are and
// how much intermediate data the shuffle moves. Derived from the real
// functions' character (wordcount: map-heavy, tiny shuffle; terasort:
// pass-through shuffle).
struct WorkloadProfile {
  std::string name;
  double map_bytes_per_cpu_unit = 50e6;  // map throughput per CPU unit
  double shuffle_ratio = 1.0;            // map-output bytes / input bytes
  double reduce_bytes_per_cpu_unit = 80e6;
};

// The shuffle+reduce shared by every runner: groups `intermediate` by key
// through a hash map (no global sort — wordcount-style jobs with heavy key
// repetition pay O(n) grouping plus per-key sorts instead of O(n log n)
// over the whole map output), sorts each key's value list unless it is
// already sorted, reduces keys in ascending order, and returns the output
// sorted by (key, value). Every reducer sees its values in sorted order,
// which makes this bit-identical to the historical
// sort-the-whole-intermediate form for any Reducer.
std::vector<KeyValue> shuffle_reduce(const Reducer& reducer,
                                     std::vector<KeyValue> intermediate);

// Deterministic single-process execution over encoded blocks.
class LocalRunner {
 public:
  LocalRunner(const Mapper& mapper, const Reducer& reducer)
      : mapper_(mapper), reducer_(reducer) {}

  // Runs over the original-data regions of `blocks` described by `fmt` —
  // one map task per split, reading parity bytes never. Results are sorted
  // by (key, value) for determinism.
  std::vector<KeyValue> run(const core::InputFormat& fmt,
                            const std::vector<ConstByteSpan>& blocks) const;

  // Reference path: runs over the plain file as a single split.
  std::vector<KeyValue> run_plain(ConstByteSpan file) const;

 private:
  const Mapper& mapper_;
  const Reducer& reducer_;
};

}  // namespace galloper::mr
