#include "core/input_format.h"

#include <algorithm>

#include "util/check.h"

namespace galloper::core {

InputFormat::InputFormat(const codes::ErasureCode& code, size_t block_bytes)
    : num_blocks_(code.num_blocks()), block_bytes_(block_bytes) {
  const auto& e = code.engine();
  GALLOPER_CHECK_MSG(
      block_bytes % e.stripes_per_block() == 0,
      "block size " << block_bytes << " not divisible by stripe count "
                    << e.stripes_per_block());
  chunk_bytes_ = block_bytes / e.stripes_per_block();

  for (size_t b = 0; b < num_blocks_; ++b) {
    const auto& chunks = e.chunks_of_block(b);
    size_t p = 0;
    while (p < chunks.size()) {
      if (chunks[p] == SIZE_MAX) {
        ++p;
        continue;
      }
      // Maximal run of stripe-adjacent, file-adjacent chunks.
      size_t end = p + 1;
      while (end < chunks.size() && chunks[end] != SIZE_MAX &&
             chunks[end] == chunks[end - 1] + 1)
        ++end;
      splits_.push_back({b, p * chunk_bytes_, chunks[p] * chunk_bytes_,
                         (end - p) * chunk_bytes_});
      p = end;
    }
  }
}

std::vector<InputFormat::Split> InputFormat::splits(
    size_t max_split_bytes) const {
  GALLOPER_CHECK_MSG(max_split_bytes > 0, "max_split_bytes must be positive");
  std::vector<Split> out;
  for (const auto& run : splits_) {
    for (size_t off = 0; off < run.length; off += max_split_bytes) {
      const size_t len = std::min(max_split_bytes, run.length - off);
      out.push_back({run.block, run.block_offset + off, run.file_offset + off,
                     len});
    }
  }
  return out;
}

size_t InputFormat::total_original_bytes() const {
  size_t total = 0;
  for (const auto& s : splits_) total += s.length;
  return total;
}

size_t InputFormat::original_bytes_in_block(size_t block) const {
  GALLOPER_CHECK(block < num_blocks_);
  size_t total = 0;
  for (const auto& s : splits_)
    if (s.block == block) total += s.length;
  return total;
}

}  // namespace galloper::core
