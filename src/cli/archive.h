// On-disk coded archive format used by the `galloper` CLI tool:
//
//   <dir>/MANIFEST        — text manifest (key=value lines)
//   <dir>/block_NNN.bin   — one file per block (may be missing = lost)
//
// The manifest records the code parameters, the rational weights, and the
// original file size (the file is zero-padded up to a whole number of
// chunks before encoding).
//
// Two layouts share the block files:
//   v1 (format=galloper-archive-v1): the whole file is ONE codeword with
//     chunk = block_bytes / N — fine for small files, but coding it means
//     holding the entire file and all blocks in memory at once.
//   v2 (format=galloper-archive-v2, chunk_bytes=c): each block is a
//     concatenation of SEGMENT pieces. Segment s is an independent codeword
//     over chunk-size c (the last segment's chunk shrinks to cover the
//     remainder), and its piece sits at the same offset in every block.
//     Segments stream through the encode/decode/repair pipelines one at a
//     time, so memory stays O(segment) regardless of file size, and each
//     segment's codec call hands the batched plan executor c-wide cells.
// Geometry derives from block_bytes and chunk_bytes only (never from
// original_bytes, which update_archive may grow into the padding).
// Writers emit v1 whenever the file fits in one segment, so small archives
// are byte-identical to older writers; readers accept both.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/galloper.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rational.h"

namespace galloper::cli {

// Thrown when rebuilt or decoded bytes fail the manifest CRC — the inputs
// themselves are corrupt, so retrying cannot help (unlike a transient I/O
// fault). The CLI maps this to its own exit code so scripts can tell
// "helpers are rotten, re-verify the archive" from "repair impossible".
class CrcMismatchError : public CheckError {
 public:
  explicit CrcMismatchError(const std::string& what) : CheckError(what) {}
};

struct Manifest {
  size_t k = 0;
  size_t l = 0;
  size_t g = 0;
  std::vector<Rational> weights;
  size_t block_bytes = 0;
  size_t original_bytes = 0;  // before padding
  size_t chunk_bytes = 0;     // v2 segment chunk size; 0 = v1 (monolithic)
  std::vector<uint32_t> block_crcs;  // CRC-32C per block (may be empty in
                                     // archives from older writers)

  std::string serialize() const;
  static Manifest parse(const std::string& text);  // throws CheckError

  core::GalloperCode make_code() const;
};

// One independent codeword of the archive. v1 archives have exactly one
// segment spanning everything; v2 archives have full segments of
// chunk_bytes plus an optional smaller tail segment.
struct Segment {
  size_t index = 0;
  size_t chunk = 0;         // per-stripe chunk bytes in this segment
  size_t block_offset = 0;  // offset of this segment's piece in every block
  size_t block_len = 0;     // stripes_per_block · chunk
  size_t file_offset = 0;   // offset in the (padded) original file
  size_t data_len = 0;      // num_chunks · chunk
};

// The segment layout of an archive, derived purely from block_bytes and
// chunk_bytes. Throws CheckError on inconsistent geometry.
std::vector<Segment> archive_segments(const Manifest& m, size_t num_chunks,
                                      size_t stripes_per_block);

// Default v2 segment chunk: segments of num_chunks·256 KiB of file data —
// big enough that the batched executor runs the SIMD kernels in their wide
// sweet spot, small enough that a pipeline holds only a few MB.
inline constexpr size_t kDefaultChunkBytes = size_t{256} << 10;

// Encodes `input` with a (k,l,g) Galloper code (weights from `perf` via the
// LP when non-empty, uniform otherwise) and writes the archive to `dir`
// (created if needed). Returns the manifest written. `threads` ≥ 1 selects
// how many pool runners the coding data path uses (1 = serial; results are
// bit-identical for any value).
//
// The encode is a streaming pipeline — a reader thread fills segment
// buffers from `input`, the calling thread encodes them (on the rt pool),
// and a writer thread appends the block pieces and folds the CRCs — so
// memory stays O(segment) for any file size. `chunk_bytes` sets the v2
// segment chunk (0 → kDefaultChunkBytes); files that fit one segment are
// written in the v1 monolithic layout.
//
// Crash-safe: blocks stream into `block_NNN.bin.tmp` staging files that are
// fsynced and renamed into place only after every byte landed, and the
// manifest is published last (atomically) — a crash at ANY point leaves
// either a complete archive or removable `.tmp` debris plus whatever was
// there before (see recover_archive_dir), never a torn archive.
Manifest encode_archive(const std::filesystem::path& input,
                        const std::filesystem::path& dir, size_t k, size_t l,
                        size_t g, const std::vector<double>& perf = {},
                        int64_t resolution = 12, size_t threads = 1,
                        size_t chunk_bytes = 0);

// Reads the manifest of an archive directory.
Manifest read_manifest(const std::filesystem::path& dir);

// Startup recovery sweep: removes orphaned `*.tmp` staging files left
// behind by a crash mid-encode / mid-repair. All archive writers stage
// into `.tmp` and fsync+rename only on success, so any `.tmp` that
// survives into a fresh process is garbage by construction — the matching
// final file is either the intact pre-crash version or legitimately
// absent (repair it again). Returns the paths removed. Safe on a
// directory that is not an archive (no-op).
std::vector<std::filesystem::path> recover_archive_dir(
    const std::filesystem::path& dir);

// Block file path; exists() tells whether the block is present.
std::filesystem::path block_path(const std::filesystem::path& dir,
                                 size_t block);

// Decodes the original file from the blocks present in `dir`.
// nullopt if the available blocks are insufficient.
std::optional<Buffer> decode_archive(const std::filesystem::path& dir,
                                     size_t threads = 1);

// Streaming decode straight to `output` (truncated/created): segments flow
// reader → codec → writer through bounded queues, so the decode of a
// multi-GB archive holds O(segment) memory. Returns false (removing the
// partial output) when the present blocks are insufficient. Bit-identical
// to writing decode_archive()'s buffer.
bool decode_archive_to(const std::filesystem::path& dir,
                       const std::filesystem::path& output,
                       size_t threads = 1);

// Rebuilds one missing block file. Returns the helper blocks read; nullopt
// if impossible. Streams segment by segment (pinning the repair plan once,
// after checking solvability but before reading any helper bytes), writes
// into block_NNN.bin.tmp, and renames over the target only after the
// rebuilt bytes match the manifest CRC — a failed repair unlinks its .tmp,
// so it never leaves a half-written staging file behind. Throws
// CrcMismatchError when the rebuilt bytes fail the manifest CRC (helper
// data is corrupt) and fault::TransientError when helper reads keep
// failing past the retry budget. A fault::CrashError is the one exception
// that DOES leave the .tmp behind (a crash runs no cleanup); the next
// process's recover_archive_dir sweep removes it.
std::optional<std::vector<size_t>> repair_archive(
    const std::filesystem::path& dir, size_t block, size_t threads = 1);

// Human-readable description (weights, layout, data/parity split).
std::string describe_archive(const std::filesystem::path& dir);

// Overwrites the chunk-aligned byte range [offset, offset + data.size())
// of the ORIGINAL file inside the archive: only the block files touched by
// the delta-parity patch are rewritten, and their manifest CRCs refreshed.
// Requires every block file present (repair first on a degraded archive).
// Returns the blocks rewritten. Segment-aware: only the segment pieces
// overlapping the range are loaded and patched in place, so an update
// against a huge v2 archive reads O(affected segments), not whole blocks.
// The range must be chunk-aligned within each segment it touches (segment
// boundaries themselves are always aligned). Nothing is written until every
// range checks out and every block the update writes matches its manifest
// CRC; a rotten one throws CrcMismatchError with the archive untouched, so
// an update never re-certifies corruption under a fresh CRC.
std::vector<size_t> update_archive(const std::filesystem::path& dir,
                                   size_t offset, ConstByteSpan data,
                                   size_t threads = 1);

// Integrity audit against the manifest's CRCs.
struct VerifyReport {
  std::vector<size_t> missing;    // block files absent
  std::vector<size_t> corrupt;    // present but CRC mismatch / wrong size
  bool decodable = false;         // can the file still be recovered?

  bool clean() const { return missing.empty() && corrupt.empty(); }
};
VerifyReport verify_archive(const std::filesystem::path& dir);

// Human-readable snapshot of the process-wide plan-cache counters, the
// per-path plan-vs-execute timing, the batched-executor dispatch counters,
// and the buffer-pool hit rate — what the CLI prints under --stats.
// Covers the work done so far in THIS process.
std::string format_plan_stats();

}  // namespace galloper::cli
