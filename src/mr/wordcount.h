// Wordcount — one of the paper's two representative Hadoop benchmarks
// (Sec. VII-B). Real map/reduce functions plus a synthetic text generator.
//
// Text is generated as fixed-size records (kRecordBytes) of space-separated
// words drawn from a Zipf-like distribution, so any split boundary that is
// a multiple of the record size never cuts a word (the same trick
// fixed-record Hadoop inputs use).
#pragma once

#include "mr/framework.h"
#include "util/rng.h"

namespace galloper::mr {

inline constexpr size_t kWordCountRecordBytes = 50;

// Generates `bytes` of text (must be a multiple of kWordCountRecordBytes).
Buffer generate_text(size_t bytes, Rng& rng);

// map: (text) → (word, "1") per word occurrence; words are views into the
// input, split on spaces, tabs and newlines.
class WordCountMapper final : public Mapper {
 public:
  using Mapper::map;
  void map(ConstByteSpan input, Emitter& out) const override;
};

// reduce: (word, [count...]) → (word, sum); a sum, so combinable().
class WordCountReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              std::vector<KeyValue>& out) const override;
  bool combinable() const override { return true; }
};

// Timing profile for the simulated path: map-heavy (tokenizing), small
// shuffle (per-mapper partial counts — what StoreRunner's in-mapper
// counting really moves), cheap reduce.
WorkloadProfile wordcount_profile();

}  // namespace galloper::mr
