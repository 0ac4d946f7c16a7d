// Terasort — the paper's other representative Hadoop benchmark.
//
// Input is a sequence of 100-byte records: a 10-byte random key followed by
// a 90-byte payload (the TeraGen format). The job sorts records by key;
// map emits (hex(key), record), the framework's shuffle sorts, reduce is
// the identity. Output order = sorted record order.
#pragma once

#include "mr/framework.h"
#include "util/rng.h"

namespace galloper::mr {

inline constexpr size_t kTeraRecordBytes = 100;
inline constexpr size_t kTeraKeyBytes = 10;

// Generates `bytes` of records (must be a multiple of kTeraRecordBytes).
Buffer generate_records(size_t bytes, Rng& rng);

class TeraSortMapper final : public Mapper {
 public:
  using Mapper::map;
  void map(ConstByteSpan input, Emitter& out) const override;
};

// Identity reduce: one output pair per record, already key-sorted by the
// framework.
class TeraSortReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              std::vector<KeyValue>& out) const override;
};

// Verifies that a terasort output is sorted and contains `records` records.
bool terasort_output_valid(const std::vector<KeyValue>& output,
                           size_t records);

// Timing profile: cheap map, full-size shuffle, sort-heavy reduce.
WorkloadProfile terasort_profile();

}  // namespace galloper::mr
