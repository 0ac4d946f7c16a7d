// Grep — a third representative workload: scan-heavy map (substring
// search), near-zero shuffle. The I/O-bound end of the spectrum, where
// Galloper's extra parallel readers matter most.
#pragma once

#include "mr/framework.h"
#include "mr/wordcount.h"
#include "util/rng.h"

namespace galloper::mr {

// Scans for a fixed needle; emits one ("match", "1") per occurrence.
class GrepMapper final : public Mapper {
 public:
  explicit GrepMapper(std::string needle);
  using Mapper::map;
  void map(ConstByteSpan input, Emitter& out) const override;

 private:
  std::string needle_;
};

// Counts matches: ("match", [count...]) → ("match", sum) — wordcount's
// sum, so combinable().
using GrepReducer = WordCountReducer;

// Counts needle occurrences in a plain buffer (the reference oracle).
size_t count_occurrences(ConstByteSpan haystack, std::string_view needle);

// Deterministic grep corpus for split-identity runs: wordcount-style text
// (`bytes` must be a multiple of kWordCountRecordBytes) with `needle`
// planted throughout, then re-blanked wherever an occurrence would
// straddle a multiple-of-`align` boundary. A split structure whose
// boundaries all fall on `align` multiples (e.g. chunk-aligned InputFormat
// splits with align = chunk_bytes) therefore sees exactly the occurrences
// a plain scan of the whole corpus sees.
Buffer generate_grep_corpus(size_t bytes, size_t align,
                            const std::string& needle, Rng& rng);

// Timing profile: disk-rate map scan, ~no shuffle.
WorkloadProfile grep_profile();

}  // namespace galloper::mr
