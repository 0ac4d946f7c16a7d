// Segments: FileStore keeps every block as kSegmentBytes pieces (the last
// one may be short), each an immutable, refcounted Segment with one
// CRC-32C — HDFS's bytes-per-checksum — so a read verifies and caches only
// the segments its decode plan actually reads, not whole blocks, and hands
// out the stored segments themselves, never copies of them.
//
// This header holds the pieces every verified read path shares: the
// segment geometry, the per-read staging of verified segments, the "which
// segments does this plan read" query, and the decode that executes a
// plan's rows straight out of the staged segments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "codes/plan.h"
#include "util/bytes.h"

namespace galloper::store {

// Bytes per stored checksum. A compile-time constant by design: the
// checksums are part of the stored block format, not a tuning knob.
inline constexpr size_t kSegmentBytes = size_t{64} << 10;

inline size_t segment_count(size_t block_bytes) {
  return (block_bytes + kSegmentBytes - 1) / kSegmentBytes;
}

// Bytes in segment g of a block of `block_bytes` (the last may be short).
inline size_t segment_size(size_t block_bytes, size_t g) {
  return std::min(kSegmentBytes, block_bytes - g * kSegmentBytes);
}

// One stored segment: an immutable view into the allocation that owns it
// (an encoded block, an update's window, a rebuilt block). The store, the
// block cache and in-flight decodes all hold the same bytes; a mutation
// publishes new segments and never writes into one someone may hold.
using Segment = SharedBytes;

// The verified segments one read (or one repair) has staged, per block id,
// allocated up front for every segment of every block.
class StagedSegments {
 public:
  StagedSegments(size_t num_blocks, size_t block_bytes)
      : segs_(num_blocks, std::vector<Segment>(segment_count(block_bytes))) {}

  bool has(size_t block, size_t seg) const {
    return static_cast<bool>(segs_[block][seg]);
  }
  void put(size_t block, size_t seg, Segment bytes) {
    segs_[block][seg] = std::move(bytes);
  }
  // Block `block`'s byte `offset`; its segment must be staged.
  const uint8_t* at(size_t block, size_t offset) const;

 private:
  std::vector<std::vector<Segment>> segs_;  // [block][segment]
};

// Per plan source slot, the sorted segment ids that the rows covering file
// bytes [lo, hi) read (lo < hi; chunk = block_bytes / stripes_per_block).
std::vector<std::vector<size_t>> plan_source_segments(
    const codes::CodecPlan& plan, size_t chunk, size_t lo, size_t hi);

// Executes the rows covering file bytes [lo, hi) into dst[0, hi - lo),
// reading every source from `staged`, which must hold the segments
// plan_source_segments names. A row is split where any of its sources
// crosses a segment boundary, so each kernel call reads inside single
// segments; the GF kernels are bytewise, so the bytes are identical to a
// decode over whole blocks.
void decode_staged(const codes::CodecPlan& plan, size_t chunk, size_t lo,
                   size_t hi, const StagedSegments& staged, uint8_t* dst);

}  // namespace galloper::store
