#include "mr/grep.h"

#include <algorithm>

#include "mr/wordcount.h"
#include "util/check.h"

namespace galloper::mr {

GrepMapper::GrepMapper(std::string needle) : needle_(std::move(needle)) {
  GALLOPER_CHECK_MSG(!needle_.empty(), "empty grep needle");
}

void GrepMapper::map(ConstByteSpan input, Emitter& out) const {
  // Emits one ("match", "1") per occurrence. (Counts, not offsets: split
  // execution sees split-relative positions, so only counts are
  // layout-independent.)
  const char* begin = reinterpret_cast<const char*>(input.data());
  const char* end = begin + input.size();
  for (const char* it = begin;;) {
    it = std::search(it, end, needle_.begin(), needle_.end());
    if (it == end) break;
    out.emit("match", "1");
    ++it;  // overlapping matches count
  }
}

size_t count_occurrences(ConstByteSpan haystack, std::string_view needle) {
  GALLOPER_CHECK(!needle.empty());
  const char* begin = reinterpret_cast<const char*>(haystack.data());
  const char* end = begin + haystack.size();
  size_t count = 0;
  for (const char* it = begin;;) {
    it = std::search(it, end, needle.begin(), needle.end());
    if (it == end) break;
    ++count;
    ++it;
  }
  return count;
}

Buffer generate_grep_corpus(size_t bytes, size_t align,
                            const std::string& needle, Rng& rng) {
  GALLOPER_CHECK(!needle.empty());
  GALLOPER_CHECK_MSG(align >= needle.size(),
                     "alignment smaller than the needle");
  Buffer corpus = generate_text(bytes, rng);
  // Plant at a stride coprime-ish to typical aligns so occurrences spread
  // over every block.
  for (size_t i = 10; i + needle.size() < corpus.size(); i += 977)
    std::copy(needle.begin(), needle.end(),
              corpus.begin() + static_cast<ptrdiff_t>(i));
  // Re-blank any occurrence straddling an align boundary, so no split cut
  // on such a boundary can hide or reveal a match.
  for (size_t edge = align; edge < corpus.size(); edge += align) {
    for (size_t s = edge - needle.size() + 1; s < edge; ++s)
      if (s + needle.size() <= corpus.size() &&
          std::equal(needle.begin(), needle.end(),
                     corpus.begin() + static_cast<ptrdiff_t>(s)))
        corpus[s] = ' ';
  }
  return corpus;
}

WorkloadProfile grep_profile() {
  WorkloadProfile p;
  p.name = "grep";
  p.map_bytes_per_cpu_unit = 150e6;  // memcmp-speed scan: disk-bound
  p.shuffle_ratio = 0.001;           // only the matches move
  p.reduce_bytes_per_cpu_unit = 100e6;
  return p;
}

}  // namespace galloper::mr
