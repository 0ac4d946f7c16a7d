// InputFormat — the analogue of the paper's custom Hadoop FileInputFormat
// (Sec. VI): it tells an analytics framework where the ORIGINAL data live
// inside each encoded block, so map tasks can be scheduled on every server
// and read only original bytes (never parity).
#pragma once

#include <vector>

#include "codes/erasure_code.h"

namespace galloper::core {

class InputFormat {
 public:
  // `block_bytes` must be a multiple of the code's stripes_per_block().
  InputFormat(const codes::ErasureCode& code, size_t block_bytes);

  // One maximal contiguous run of original data per block (blocks whose
  // weight is zero contribute nothing). Original data are rotated to the
  // top of each block, so block_offset is 0 for every split this library
  // produces — kept explicit because consumers must not assume it.
  struct Split {
    size_t block = 0;         // block (= server) holding the bytes
    size_t block_offset = 0;  // where the run starts inside the block
    size_t file_offset = 0;   // where the run belongs in the original file
    size_t length = 0;        // bytes of original data
  };

  const std::vector<Split>& splits() const { return splits_; }

  // The maximal runs above, subdivided so no split exceeds max_split_bytes
  // (the last piece of a run keeps the remainder). This is what a real job
  // scheduler consumes: with runs up to a whole block long, one-task-per-run
  // quantizes map parallelism to the run count; capping the split size
  // yields enough tasks to keep every map slot busy. max_split_bytes must
  // be positive; callers that want record-aligned splits pass a multiple of
  // their record size (runs start chunk-aligned, and every workload here
  // sizes chunks as a record multiple).
  std::vector<Split> splits(size_t max_split_bytes) const;

  size_t block_bytes() const { return block_bytes_; }
  size_t chunk_bytes() const { return chunk_bytes_; }

  // Total original bytes across all blocks (= the original file size).
  size_t total_original_bytes() const;

  // Original bytes stored in one block.
  size_t original_bytes_in_block(size_t block) const;

 private:
  size_t num_blocks_;
  size_t block_bytes_;
  size_t chunk_bytes_;
  std::vector<Split> splits_;
};

}  // namespace galloper::core
