#include "store/segments.h"

#include <algorithm>

#include "util/check.h"

namespace galloper::store {

const uint8_t* StagedSegments::at(size_t block, size_t offset) const {
  const size_t seg = offset / kSegmentBytes;
  GALLOPER_DCHECK(has(block, seg));
  return segs_[block][seg].data() + offset % kSegmentBytes;
}

namespace {

using Source = codes::CodecPlan::Source;

// Calls f(source) for every source a row reads: the copy source of a
// verbatim row, the combination terms otherwise.
template <typename F>
void for_each_row_source(const codes::CodecPlan& plan,
                         const codes::CodecPlan::Row& row, F&& f) {
  if (row.copy_slot >= 0) {
    f(Source{static_cast<uint32_t>(row.copy_slot), row.copy_pos});
  } else {
    for (const Source& s : plan.row_sources(row)) f(s);
  }
}

}  // namespace

std::vector<std::vector<size_t>> plan_source_segments(
    const codes::CodecPlan& plan, size_t chunk, size_t lo, size_t hi) {
  GALLOPER_CHECK(lo < hi);
  std::vector<std::vector<size_t>> segs(plan.source_blocks().size());
  for (size_t c = lo / chunk; c * chunk < hi; ++c) {
    const size_t il = std::max(lo, c * chunk) - c * chunk;
    const size_t ih = std::min(hi, (c + 1) * chunk) - c * chunk;
    for_each_row_source(plan, plan.row(c), [&](const Source& s) {
      const size_t base = size_t{s.pos} * chunk;
      for (size_t g = (base + il) / kSegmentBytes;
           g <= (base + ih - 1) / kSegmentBytes; ++g)
        segs[s.slot].push_back(g);
    });
  }
  for (auto& v : segs) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return segs;
}

void decode_staged(const codes::CodecPlan& plan, size_t chunk, size_t lo,
                   size_t hi, const StagedSegments& staged, uint8_t* dst) {
  const std::vector<size_t>& blocks = plan.source_blocks();
  for (size_t c = lo / chunk; c * chunk < hi; ++c) {
    const codes::CodecPlan::Row& row = plan.row(c);
    const size_t ih = std::min(hi, (c + 1) * chunk) - c * chunk;
    for (size_t a = std::max(lo, c * chunk) - c * chunk; a < ih;) {
      // Largest run [a, b) inside which no source crosses a segment end.
      size_t b = ih;
      for_each_row_source(plan, row, [&](const Source& s) {
        const size_t off = size_t{s.pos} * chunk + a;
        b = std::min(b, a + kSegmentBytes - off % kSegmentBytes);
      });
      plan.run_row_at(row, dst + (c * chunk + a - lo), b - a,
                      [&](const Source& s) {
                        return staged.at(blocks[s.slot],
                                         size_t{s.pos} * chunk + a);
                      });
      a = b;
    }
  }
}

}  // namespace galloper::store
