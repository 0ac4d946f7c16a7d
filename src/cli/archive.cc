#include "cli/archive.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "client/cache.h"
#include "client/striped.h"
#include "codes/plan.h"
#include "core/input_format.h"
#include "core/weights.h"
#include "fault/fault.h"
#include "io/async.h"
#include "io/io.h"
#include "mr/store_runner.h"
#include "rt/queue.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace galloper::cli {

namespace fs = std::filesystem;

namespace {

// Piece size for streaming whole-file CRC passes (verify, update's CRC
// refresh): big enough to amortize syscalls, small enough to stay pooled.
constexpr size_t kIoPiece = size_t{4} << 20;

// ---- Hardened file I/O ----------------------------------------------------
//
// All archive I/O is positional (io::File over pread/pwrite): EINTR and
// short transfers retry in ONE place (io::read_full / io::write_full), and
// positional ops need no stream state — which is what lets the pipeline
// stages below scatter-gather many reads/writes of one file concurrently
// on the async I/O pool. A truncated block file or a full disk still fails
// loudly with the path and the counts instead of silently coding over
// garbage.

// ---- Fault hooks ----------------------------------------------------------
//
// The archive pipelines consult the process-global fault injector (there is
// no per-call handle threading through the CLI): crash points simulate the
// process dying at a named program point, and helper/segment reads retry
// injected transient faults with exponential backoff. A stall drawn above
// the per-read timeout budget counts as a failed attempt — the caller does
// not wait out a hung helper.

void maybe_crash(const std::string& point) {
  if (fault::FaultInjector* inj = fault::global()) inj->crash_point(point);
}

constexpr size_t kReadAttempts = 4;
constexpr double kReadTimeoutSeconds = 0.010;  // per-attempt stall budget

// Positional read of [off, off + n) with the injector's transient-fault
// retry schedule. Safe to run concurrently from async ops: each call draws
// its own schedule (the CLI fault tests are rate-based, not sequence-
// based, so concurrent draw order is free to vary).
void pread_retry(const io::File& file, uint8_t* dst, size_t n, uint64_t off) {
  fault::FaultInjector* inj = fault::global();
  for (size_t attempt = 1;; ++attempt) {
    bool failed = false;
    if (inj) {
      const double stall = inj->read_latency();
      if (stall > kReadTimeoutSeconds) {
        failed = true;  // timed out — do not wait out the spike
      } else if (stall > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(stall));
      }
      if (inj->read_fails()) failed = true;
    }
    if (!failed) {
      file.pread_full(dst, n, off);
      return;
    }
    if (attempt >= kReadAttempts)
      throw fault::TransientError("read of " + file.path() +
                                  " kept failing transiently (" +
                                  std::to_string(attempt) + " attempts)");
    std::this_thread::sleep_for(std::chrono::microseconds(50u << attempt));
  }
}

// fsync for the write-tmp → fsync → rename → fsync-dir publish sequence:
// without the file sync the rename can land before the data, and without
// the directory sync the rename itself can vanish in a crash.
void sync_path(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  GALLOPER_CHECK_MSG(fd >= 0, "cannot open " << path.string() << " to fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  GALLOPER_CHECK_MSG(rc == 0, "fsync failed on " << path.string());
}

fs::path tmp_path_of(const fs::path& final_path) {
  fs::path tmp = final_path;
  tmp += ".tmp";
  return tmp;
}

Buffer read_file(const fs::path& path) {
  const io::File in = io::File::open_read(path);
  Buffer data(in.size());
  if (!data.empty()) in.pread_full(data.data(), data.size(), 0);
  return data;
}

void write_file(const fs::path& path, ConstByteSpan data) {
  io::File out = io::File::create(path);
  if (!data.empty()) out.pwrite_full(data.data(), data.size(), 0);
}

// Atomic publish: readers see the old contents or the new, never a torn
// write. Used for the MANIFEST (the archive's commit record).
void write_file_atomic(const fs::path& path, ConstByteSpan data) {
  const fs::path tmp = tmp_path_of(path);
  write_file(tmp, data);
  sync_path(tmp);
  maybe_crash("archive.manifest.pre_rename");
  fs::rename(tmp, path);
  sync_path(path.parent_path());
}

// Streaming CRC of a whole file in kIoPiece pieces — verify and the
// update-path CRC refresh never hold more than one piece in memory.
uint32_t file_crc32c(const fs::path& path) {
  const io::File in = io::File::open_read(path);
  uint32_t state = kCrc32cInit;
  Buffer piece(kIoPiece);
  uint64_t off = 0;
  while (true) {
    const size_t got = in.pread_some(piece.data(), piece.size(), off);
    if (got == 0) break;
    state = crc32c_extend(state, ConstByteSpan(piece.data(), got));
    off += got;
  }
  return crc32c_finish(state);
}

// Manifest numbers are whole tokens: "4x", "-1", "" and out-of-range values
// are errors naming the offending line, never a silent prefix or wrap.
// Decimal fields (counts, sizes, weight terms) are non-negative and stay
// within int64, so geometry products can go through util/rational's
// checked ops.
template <typename T>
T parse_number(const std::string& token, const std::string& line, int base,
               T max) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v, base);
  GALLOPER_CHECK_MSG(!token.empty() && ec == std::errc() && ptr == end &&
                         v <= max,
                     "manifest line \"" << line << "\": bad number \""
                                         << token << "\"");
  return v;
}

int64_t parse_decimal(const std::string& token, const std::string& line) {
  return static_cast<int64_t>(parse_number<uint64_t>(
      token, line, 10, std::numeric_limits<int64_t>::max()));
}

Rational parse_rational(const std::string& s, const std::string& line) {
  const size_t slash = s.find('/');
  if (slash == std::string::npos) return Rational(parse_decimal(s, line));
  return Rational(parse_decimal(s.substr(0, slash), line),
                  parse_decimal(s.substr(slash + 1), line));
}

// Comma-separated list, one parsed entry per token.
template <typename Fn>
void parse_list(const std::string& value, Fn&& parse_token) {
  size_t start = 0;
  while (start < value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    parse_token(value.substr(start, comma - start));
    start = comma + 1;
  }
}

// Reads [off, off + len) of every file in `files` concurrently on the async
// I/O pool (scatter-gather). Each op runs pread_retry's retry-with-backoff,
// so an injected transient fault or over-budget stall on one read does not
// fail the gather; a persistent one surfaces from wait_all as
// fault::TransientError.
std::vector<Buffer> read_pieces(const std::vector<io::File>& files,
                                uint64_t off, size_t len) {
  std::vector<Buffer> pieces(files.size());
  std::vector<io::OpRef> ops;
  ops.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    pieces[i] = Buffer(len);
    ops.push_back(io::AsyncIo::global().submit(
        io::OpKind::kRead, len,
        [&file = files[i], dst = pieces[i].data(), len, off](io::Op&) {
          pread_retry(file, dst, len, off);
        }));
  }
  io::AsyncIo::wait_all(ops);
  return pieces;
}

// The codec's view of one segment: pieces[i] is block ids[i]'s piece.
std::map<size_t, ConstByteSpan> piece_view(const std::vector<size_t>& ids,
                                           const std::vector<Buffer>& pieces) {
  std::map<size_t, ConstByteSpan> view;
  for (size_t i = 0; i < ids.size(); ++i) view.emplace(ids[i], pieces[i]);
  return view;
}

// ---- The stage pipeline ---------------------------------------------------
//
// Every streaming archive operation (encode, decode, repair) is one
// reader → codec → writer pipeline over the archive's segments:
//  - read(i) runs on a reader thread for i = 0, 1, …, count − 1;
//  - code(i, in) runs on the calling thread, fanning out on the rt pool;
//  - write(i, out) runs on a writer thread, in segment order.
// The stages are rt::StageThreads joined by two BoundedQueues of capacity
// rt::queue_depth() (GALLOPER_QUEUE_DEPTH, default 2), which double-buffer
// each stage: at most ~depth items of input and of output are live, so
// memory is O(segment) for any file size. A throw in any stage poisons both
// queues, so every peer unblocks and queued items are dropped; the first
// error is rethrown here after both threads joined. Each step is preceded
// by the crash point "archive.<op>.{reader,codec,writer}".
template <typename Read, typename Code, typename Write>
void run_stages(const std::string& op, size_t count, Read read, Code code,
                Write write) {
  using In = std::invoke_result_t<Read&, size_t>;
  using Out = std::invoke_result_t<Code&, size_t, In&&>;
  rt::BoundedQueue<std::pair<size_t, In>> in_q(rt::queue_depth());
  rt::BoundedQueue<std::pair<size_t, Out>> out_q(rt::queue_depth());
  const auto abort_all = [&](std::exception_ptr e) {
    in_q.poison(e);
    out_q.poison(e);
  };
  const std::string point = "archive." + op + ".";
  rt::StageThread reader(
      [&] {
        for (size_t i = 0; i < count; ++i) {
          maybe_crash(point + "reader");
          if (!in_q.push({i, read(i)})) return;
        }
        in_q.close();
      },
      abort_all);
  rt::StageThread writer(
      [&] {
        while (auto item = out_q.pop()) {
          maybe_crash(point + "writer");
          write(item->first, std::move(item->second));
        }
      },
      abort_all);

  std::exception_ptr codec_error;
  try {
    while (auto item = in_q.pop()) {
      maybe_crash(point + "codec");
      const size_t i = item->first;
      if (!out_q.push({i, code(i, std::move(item->second))})) break;
    }
  } catch (...) {
    codec_error = std::current_exception();
    abort_all(codec_error);
  }
  out_q.close();
  reader.join();
  writer.join();
  if (codec_error) std::rethrow_exception(codec_error);
  reader.rethrow();
  writer.rethrow();
}

}  // namespace

std::string Manifest::serialize() const {
  std::ostringstream os;
  os << "format=galloper-archive-v" << (chunk_bytes > 0 ? 2 : 1) << "\n";
  os << "k=" << k << "\n";
  os << "l=" << l << "\n";
  os << "g=" << g << "\n";
  os << "weights=";
  for (size_t i = 0; i < weights.size(); ++i)
    os << (i ? "," : "") << weights[i].to_string();
  os << "\n";
  os << "block_bytes=" << block_bytes << "\n";
  os << "original_bytes=" << original_bytes << "\n";
  if (chunk_bytes > 0) os << "chunk_bytes=" << chunk_bytes << "\n";
  if (!block_crcs.empty()) {
    os << "block_crcs=";
    for (size_t i = 0; i < block_crcs.size(); ++i) {
      char hex[16];
      std::snprintf(hex, sizeof(hex), "%08x", block_crcs[i]);
      os << (i ? "," : "") << hex;
    }
    os << "\n";
  }
  return os.str();
}

Manifest Manifest::parse(const std::string& text) {
  Manifest m;
  std::istringstream is(text);
  std::string line;
  bool format_seen = false;
  bool v2 = false;
  // Raw lines of the fields the cross-field checks below name.
  std::string weights_line, crcs_line, original_line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    GALLOPER_CHECK_MSG(eq != std::string::npos,
                       "malformed manifest line: " << line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "format") {
      GALLOPER_CHECK_MSG(value == "galloper-archive-v1" ||
                             value == "galloper-archive-v2",
                         "unsupported archive format: " << value);
      v2 = value == "galloper-archive-v2";
      format_seen = true;
    } else if (key == "k") {
      m.k = parse_decimal(value, line);
    } else if (key == "l") {
      m.l = parse_decimal(value, line);
    } else if (key == "g") {
      m.g = parse_decimal(value, line);
    } else if (key == "weights") {
      weights_line = line;
      parse_list(value, [&](const std::string& t) {
        m.weights.push_back(parse_rational(t, line));
      });
    } else if (key == "block_bytes") {
      m.block_bytes = parse_decimal(value, line);
    } else if (key == "original_bytes") {
      original_line = line;
      m.original_bytes = parse_decimal(value, line);
    } else if (key == "chunk_bytes") {
      m.chunk_bytes = parse_decimal(value, line);
    } else if (key == "block_crcs") {
      crcs_line = line;
      parse_list(value, [&](const std::string& t) {
        m.block_crcs.push_back(parse_number<uint32_t>(
            t, line, 16, std::numeric_limits<uint32_t>::max()));
      });
    } else {
      // Unknown keys are ignored for forward compatibility.
    }
  }
  GALLOPER_CHECK_MSG(format_seen, "manifest missing format line");
  GALLOPER_CHECK_MSG(m.k > 0 && !m.weights.empty() && m.block_bytes > 0,
                     "manifest incomplete");
  GALLOPER_CHECK_MSG(v2 == (m.chunk_bytes > 0),
                     "manifest format/chunk_bytes mismatch");

  const auto k = static_cast<int64_t>(m.k);
  const auto n = static_cast<size_t>(checked_add64(
      checked_add64(k, static_cast<int64_t>(m.l)), static_cast<int64_t>(m.g)));
  GALLOPER_CHECK_MSG(m.weights.size() == n,
                     "manifest line \"" << weights_line << "\": "
                                         << m.weights.size()
                                         << " weights for k+l+g = " << n
                                         << " blocks");
  GALLOPER_CHECK_MSG(m.block_crcs.empty() || m.block_crcs.size() == n,
                     "manifest line \"" << crcs_line << "\": "
                                         << m.block_crcs.size()
                                         << " CRCs for k+l+g = " << n
                                         << " blocks");
  // Capacity from the segment geometry: every segment is one codeword whose
  // piece of p bytes per block holds N stripes of p/N bytes, and its k·N
  // data chunks (the weights sum to k) carry k·p file bytes. Summed over the
  // segments that is k·block_bytes, whatever N and the segment split are.
  const Rational total = sum(m.weights);
  GALLOPER_CHECK_MSG(total == Rational(k),
                     "manifest line \"" << weights_line
                                         << "\": weights sum to "
                                         << total.to_string() << ", not k = "
                                         << k);
  const int64_t capacity =
      checked_mul64(k, static_cast<int64_t>(m.block_bytes));
  GALLOPER_CHECK_MSG(m.original_bytes <= static_cast<size_t>(capacity),
                     "manifest line \"" << original_line
                                         << "\": exceeds the archive's data "
                                            "capacity of "
                                         << capacity << " bytes");
  return m;
}

core::GalloperCode Manifest::make_code() const {
  return core::GalloperCode(k, l, g, weights);
}

std::vector<Segment> archive_segments(const Manifest& m, size_t num_chunks,
                                      size_t stripes_per_block) {
  GALLOPER_CHECK_MSG(m.block_bytes % stripes_per_block == 0,
                     "block_bytes " << m.block_bytes
                                    << " not a whole number of stripes");
  std::vector<Segment> segs;
  if (m.chunk_bytes == 0) {
    // v1: the whole block is one codeword.
    const size_t chunk = m.block_bytes / stripes_per_block;
    segs.push_back({0, chunk, 0, m.block_bytes, 0, num_chunks * chunk});
    return segs;
  }
  const size_t full_piece = stripes_per_block * m.chunk_bytes;
  const size_t nfull = m.block_bytes / full_piece;
  const size_t tail = m.block_bytes % full_piece;
  GALLOPER_CHECK_MSG(tail % stripes_per_block == 0,
                     "tail piece " << tail
                                   << " not a whole number of stripes");
  segs.reserve(nfull + (tail > 0));
  size_t boff = 0;
  size_t foff = 0;
  for (size_t s = 0; s < nfull; ++s) {
    segs.push_back({s, m.chunk_bytes, boff, full_piece, foff,
                    num_chunks * m.chunk_bytes});
    boff += full_piece;
    foff += num_chunks * m.chunk_bytes;
  }
  if (tail > 0) {
    const size_t chunk = tail / stripes_per_block;
    segs.push_back({nfull, chunk, boff, tail, foff, num_chunks * chunk});
  }
  GALLOPER_CHECK_MSG(!segs.empty(), "archive has no segments");
  return segs;
}

fs::path block_path(const fs::path& dir, size_t block) {
  char name[32];
  std::snprintf(name, sizeof(name), "block_%03zu.bin", block);
  return dir / name;
}

Manifest encode_archive(const fs::path& input, const fs::path& dir, size_t k,
                        size_t l, size_t g, const std::vector<double>& perf,
                        int64_t resolution, size_t threads,
                        size_t chunk_bytes) {
  GALLOPER_CHECK_MSG(threads >= 1, "need at least one thread");
  const io::File in = io::File::open_read(input);
  const size_t original = in.size();
  GALLOPER_CHECK_MSG(original > 0, "refusing to encode an empty file");

  Manifest m;
  m.k = k;
  m.l = l;
  m.g = g;
  m.original_bytes = original;
  m.weights = perf.empty()
                  ? core::uniform_weights(k, l, g)
                  : core::assign_weights(k, l, g, perf, resolution).weights;

  const core::GalloperCode code(k, l, g, m.weights);
  const codes::CodecEngine& engine = code.engine();
  const size_t chunks = engine.num_chunks();
  const size_t nstripes = engine.stripes_per_block();
  const size_t nblocks = code.num_blocks();

  // Segment geometry: full segments of chunk `c`, plus a tail segment whose
  // chunk covers the remainder (zero-padded up to whole chunks). A file
  // that fits one segment keeps the v1 monolithic layout — byte-identical
  // to older writers.
  const size_t c = chunk_bytes > 0 ? chunk_bytes : kDefaultChunkBytes;
  const size_t seg_data = chunks * c;
  const size_t nfull = original / seg_data;
  const size_t rem = original % seg_data;
  const size_t tail_chunk = rem > 0 ? (rem + chunks - 1) / chunks : 0;
  const size_t nsegs = nfull + (rem > 0 ? 1 : 0);
  m.block_bytes = (nfull * c + tail_chunk) * nstripes;
  m.chunk_bytes = nsegs > 1 ? c : 0;
  const std::vector<Segment> segments =
      archive_segments(m, chunks, nstripes);

  // Outputs open before any stage thread starts: a failed open must throw
  // while no stage can be parked on a queue. Blocks stream into .tmp
  // staging files; the publish below renames them into place only after
  // every byte landed, so an aborted or crashed encode never tears an
  // existing archive in `dir`.
  fs::create_directories(dir);
  std::vector<io::File> outs;
  outs.reserve(nblocks);
  for (size_t b = 0; b < nblocks; ++b)
    outs.push_back(io::File::create(tmp_path_of(block_path(dir, b))));
  std::vector<uint32_t> crcs(nblocks, kCrc32cInit);

  try {
    run_stages(
        "encode", segments.size(),
        [&](size_t i) {
          const Segment& seg = segments[i];
          Buffer data(seg.data_len);
          const size_t want =
              std::min(seg.data_len, original - seg.file_offset);
          in.pread_full(data.data(), want, seg.file_offset);
          std::fill(data.begin() + static_cast<std::ptrdiff_t>(want),
                    data.end(), 0);
          return data;
        },
        [&](size_t, Buffer&& data) { return engine.encode(data, threads); },
        [&](size_t i, std::vector<Buffer>&& blocks) {
          // Scatter-gather: all nblocks per-segment pieces land on the
          // async pool concurrently (positional writes, one op per block
          // file); the CRC fold stays serial and in block order.
          std::vector<io::OpRef> ops;
          ops.reserve(nblocks);
          for (size_t b = 0; b < nblocks; ++b)
            ops.push_back(io::AsyncIo::global().submit_write(
                outs[b], blocks[b].data(), blocks[b].size(),
                segments[i].block_offset));
          io::AsyncIo::wait_all(ops);
          for (size_t b = 0; b < nblocks; ++b)
            crcs[b] = crc32c_extend(crcs[b], blocks[b]);
        });

    // Publish: flush + fsync every staging file, then rename the whole set
    // into place and commit with an atomic MANIFEST write. A crash before
    // the first rename leaves only .tmp debris; between renames, block
    // files with no (new) manifest — both states the startup sweep /
    // re-encode handle.
    for (size_t b = 0; b < nblocks; ++b) {
      outs[b].sync();
      outs[b].close();
      m.block_crcs.push_back(crc32c_finish(crcs[b]));
    }
    maybe_crash("archive.encode.pre_publish");
    for (size_t b = 0; b < nblocks; ++b)
      fs::rename(tmp_path_of(block_path(dir, b)), block_path(dir, b));
    sync_path(dir);
  } catch (const fault::CrashError&) {
    throw;  // a crash runs no cleanup — recover_archive_dir sweeps the .tmp
  } catch (...) {
    for (size_t b = 0; b < nblocks; ++b) {
      if (outs[b].is_open()) outs[b].close();
      std::error_code ec;
      fs::remove(tmp_path_of(block_path(dir, b)), ec);
    }
    throw;
  }

  const std::string serialized = m.serialize();
  write_file_atomic(dir / "MANIFEST",
                    ConstByteSpan(
                        reinterpret_cast<const uint8_t*>(serialized.data()),
                        serialized.size()));
  return m;
}

std::vector<fs::path> recover_archive_dir(const fs::path& dir) {
  std::vector<fs::path> removed;
  if (!fs::is_directory(dir)) return removed;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".tmp")
      continue;
    std::error_code ec;
    fs::remove(entry.path(), ec);
    if (!ec) removed.push_back(entry.path());
  }
  std::sort(removed.begin(), removed.end());
  return removed;
}

Manifest read_manifest(const fs::path& dir) {
  const Buffer raw = read_file(dir / "MANIFEST");
  return Manifest::parse(std::string(raw.begin(), raw.end()));
}

namespace {

// The decode pipeline of archive `dir` (manifest `m`): reads each segment's
// piece of every present block, decodes it, and hands the segment's file
// bytes, clipped to original_bytes, to `write(file_offset, bytes)` on the
// writer stage in file order. Returns false, before reading any block
// bytes, when the present set cannot decode.
bool run_decode(const fs::path& dir, const Manifest& m, size_t threads,
                const std::function<void(size_t, const Buffer&)>& write) {
  const core::GalloperCode code = m.make_code();
  const codes::CodecEngine& engine = code.engine();
  const std::vector<Segment> segments = archive_segments(
      m, engine.num_chunks(), engine.stripes_per_block());

  std::vector<size_t> ids;
  std::vector<io::File> ins;  // parallel to ids
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const fs::path p = block_path(dir, b);
    if (!fs::exists(p)) continue;
    GALLOPER_CHECK_MSG(fs::file_size(p) == m.block_bytes,
                       "block file " << p.string() << " has wrong size");
    ids.push_back(b);
    ins.push_back(io::File::open_read(p));
  }
  if (ids.empty()) return false;
  // Solvability is a property of the erasure pattern, not the bytes: gate
  // here, before a single block byte is read.
  if (!engine.plan_decode(ids)->fully_solvable()) return false;

  run_stages(
      "decode", segments.size(),
      [&](size_t i) {
        return read_pieces(ins, segments[i].block_offset,
                           segments[i].block_len);
      },
      [&](size_t i, std::vector<Buffer>&& pieces) {
        auto decoded = engine.decode(piece_view(ids, pieces), threads);
        GALLOPER_CHECK(decoded.has_value());  // solvability gated above
        const size_t off = segments[i].file_offset;
        const size_t real = off < m.original_bytes ? m.original_bytes - off : 0;
        decoded->resize(std::min(decoded->size(), real));
        return std::move(*decoded);
      },
      [&](size_t i, Buffer&& data) {
        if (!data.empty()) write(segments[i].file_offset, data);
      });
  return true;
}

}  // namespace

std::optional<Buffer> decode_archive(const fs::path& dir, size_t threads) {
  const Manifest m = read_manifest(dir);
  Buffer file(m.original_bytes);  // the writes cover it exactly
  if (!run_decode(dir, m, threads, [&](size_t off, const Buffer& data) {
        std::memcpy(file.data() + off, data.data(), data.size());
      }))
    return std::nullopt;
  return file;
}

bool decode_archive_to(const fs::path& dir, const fs::path& output,
                       size_t threads) {
  io::File out = io::File::create(output);
  try {
    // Positional writes land each segment exactly where it belongs, on the
    // writer stage, overlapping the next segment's decode.
    if (run_decode(dir, read_manifest(dir), threads,
                   [&](size_t off, const Buffer& data) {
                     out.pwrite_full(data.data(), data.size(), off);
                   }))
      return true;
  } catch (const fault::CrashError&) {
    throw;  // a crash runs no cleanup: tests assert the debris
  } catch (...) {
    // A failed decode must not leave a partial output lying around looking
    // valid.
    out.close();
    std::error_code ec;
    fs::remove(output, ec);
    throw;
  }
  out.close();
  fs::remove(output);
  return false;
}

std::optional<std::vector<size_t>> repair_archive(const fs::path& dir,
                                                  size_t block,
                                                  size_t threads) {
  const Manifest m = read_manifest(dir);
  const core::GalloperCode code = m.make_code();
  const codes::CodecEngine& engine = code.engine();
  GALLOPER_CHECK_MSG(block < code.num_blocks(),
                     "block " << block << " out of range");
  const std::vector<Segment> segments = archive_segments(
      m, engine.num_chunks(), engine.stripes_per_block());

  const auto usable = [&](size_t b) {
    const fs::path p = block_path(dir, b);
    return fs::exists(p) && fs::file_size(p) == m.block_bytes;
  };

  auto try_helpers = [&](const std::vector<size_t>& helpers)
      -> std::optional<std::vector<size_t>> {
    if (helpers.empty()) return std::nullopt;
    for (size_t h : helpers)
      if (!usable(h)) return std::nullopt;
    // Pin the repair plan once for every segment (same pattern throughout)
    // and gate on solvability BEFORE any helper bytes are read.
    const auto plan = engine.plan_repair(block, helpers);
    if (!plan->fully_solvable()) return std::nullopt;

    std::vector<io::File> ins;
    ins.reserve(helpers.size());
    for (size_t h : helpers)
      ins.push_back(io::File::open_read(block_path(dir, h)));

    // Rebuild into block_NNN.bin.tmp and rename over the target only once
    // every segment landed and the CRC matches — a failed repair unlinks
    // its staging file on the way out (CRC mismatch and mid-stream I/O
    // errors included), so retrying never trips over stale debris. The one
    // deliberate exception is an injected CrashError: a crash runs no
    // cleanup, and the orphaned .tmp is what recover_archive_dir exists
    // to sweep.
    const fs::path final_path = block_path(dir, block);
    const fs::path tmp_path = tmp_path_of(final_path);
    try {
      io::File out = io::File::create(tmp_path);

      uint32_t crc = kCrc32cInit;
      run_stages(
          "repair", segments.size(),
          [&](size_t i) {
            return read_pieces(ins, segments[i].block_offset,
                               segments[i].block_len);
          },
          [&](size_t, std::vector<Buffer>&& pieces) {
            auto rebuilt = engine.repair_block_with_plan(
                *plan, piece_view(helpers, pieces), threads);
            GALLOPER_CHECK(rebuilt.has_value());  // solvability gated above
            return std::move(*rebuilt);
          },
          [&](size_t i, Buffer&& data) {
            out.pwrite_full(data.data(), data.size(),
                            segments[i].block_offset);
            crc = crc32c_extend(crc, data);
          });

      if (m.block_crcs.size() > block && crc32c_finish(crc) != m.block_crcs[block]) {
        std::ostringstream os;
        os << "repaired block " << block
           << " fails its manifest CRC — helper data is corrupt";
        throw CrcMismatchError(os.str());
      }
      out.sync();
      out.close();
      maybe_crash("archive.repair.pre_rename");
      fs::rename(tmp_path, final_path);
      sync_path(dir);
    } catch (const fault::CrashError&) {
      throw;  // no cleanup: the crash leaves its .tmp for startup recovery
    } catch (...) {
      std::error_code ec;
      fs::remove(tmp_path, ec);  // best effort; the original is untouched
      throw;
    }
    return helpers;
  };

  // Local helpers first; fall back to every present block.
  if (auto done = try_helpers(code.repair_helpers(block))) return done;
  std::vector<size_t> all;
  for (size_t b = 0; b < code.num_blocks(); ++b)
    if (b != block && usable(b)) all.push_back(b);
  return try_helpers(all);
}

std::string describe_archive(const fs::path& dir) {
  const Manifest m = read_manifest(dir);
  const core::GalloperCode code = m.make_code();
  core::InputFormat fmt(code, m.block_bytes);
  const std::vector<Segment> segments = archive_segments(
      m, code.engine().num_chunks(), code.engine().stripes_per_block());

  std::ostringstream os;
  os << code.name() << ", N = " << code.n_stripes()
     << " stripes/block, block = " << m.block_bytes
     << " bytes, original = " << m.original_bytes << " bytes";
  if (m.chunk_bytes > 0)
    os << ", " << segments.size() << " segments (chunk " << m.chunk_bytes
       << " bytes, tail " << segments.back().chunk << ")";
  os << "\n";
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const char* role = b < m.k                ? "data"
                       : b < m.k + m.l        ? "local parity"
                                              : "global parity";
    os << "  block " << b << " [" << role << "] weight "
       << code.weights()[b].to_string() << " → "
       << fmt.original_bytes_in_block(b) << " original bytes, "
       << (fs::exists(block_path(dir, b)) ? "present" : "MISSING") << "\n";
  }
  return os.str();
}

std::vector<size_t> update_archive(const fs::path& dir, size_t offset,
                                   ConstByteSpan data, size_t threads) {
  Manifest m = read_manifest(dir);
  const core::GalloperCode code = m.make_code();
  const codes::CodecEngine& engine = code.engine();
  const size_t nstripes = engine.stripes_per_block();
  const std::vector<Segment> segments =
      archive_segments(m, engine.num_chunks(), nstripes);
  const size_t padded_bytes =
      segments.back().file_offset + segments.back().data_len;
  GALLOPER_CHECK_MSG(offset + data.size() <= padded_bytes,
                     "update range beyond the encoded file");
  if (data.empty()) return {};

  std::vector<io::File> ins;
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const fs::path p = block_path(dir, b);
    GALLOPER_CHECK_MSG(fs::exists(p),
                       "block " << b << " missing — repair before updating");
    GALLOPER_CHECK_MSG(fs::file_size(p) == m.block_bytes,
                       "block file " << p.string() << " has wrong size");
    ins.push_back(io::File::open_read(p));
  }

  // Plan before writing a byte: check every overlapped segment's range and
  // name the blocks its chunk updates write, so a bad range or a rotten
  // block refuses the update with the archive untouched. Segment-aware:
  // only the pieces the range overlaps are loaded, patched and written
  // back, so an update touches O(affected segments) bytes per block.
  struct Patch {
    const Segment* seg;
    size_t first_chunk, end_chunk;  // chunk indices within the segment
    size_t hi;                      // file offset the patch ends at
  };
  std::vector<Patch> patches;
  std::vector<size_t> writes;  // every block a chunk update may write
  for (const Segment& seg : segments) {
    const size_t lo = std::max(offset, seg.file_offset);
    const size_t hi =
        std::min(offset + data.size(), seg.file_offset + seg.data_len);
    if (lo >= hi) continue;
    // Chunk alignment, with one carve-out: an update may END mid-chunk at
    // exactly original_bytes (the real end of the data). The tail segment's
    // chunk is ⌈remainder / num_chunks⌉, so unless chunk_bytes divides the
    // file size the last real byte sits mid-chunk and a strict alignment
    // rule would make the file's own tail un-updatable. The partial final
    // chunk is clamped to the real data length and zero-padded — bytes past
    // original_bytes are zero by construction (encode pads with zeros and
    // no update can have written past original_bytes), so the padding
    // rewrites them with the values they already hold.
    const bool eof_clamped =
        (hi - seg.file_offset) % seg.chunk != 0 && hi == m.original_bytes;
    GALLOPER_CHECK_MSG(
        (lo - seg.file_offset) % seg.chunk == 0 &&
            ((hi - seg.file_offset) % seg.chunk == 0 || eof_clamped),
        "updates must be chunk-aligned (chunk = "
            << seg.chunk << " bytes in segment " << seg.index
            << ") or end at the file's last byte");
    const Patch patch{&seg, (lo - seg.file_offset) / seg.chunk,
                      (hi - seg.file_offset + seg.chunk - 1) / seg.chunk, hi};
    for (size_t c = patch.first_chunk; c < patch.end_chunk; ++c)
      for (const codes::StripeRef& s : engine.update_stripes(c))
        writes.push_back(s.block);
    patches.push_back(patch);
  }
  std::sort(writes.begin(), writes.end());
  writes.erase(std::unique(writes.begin(), writes.end()), writes.end());

  // Patching a rotten block launders it: the refreshed manifest CRC below
  // would certify a rotten parity block, and a rotten data piece would
  // yield wrong parity deltas. Every block the update writes must match
  // its manifest CRC first (archives from writers that recorded no CRCs
  // are trusted, as verify_archive does).
  for (size_t b : writes)
    if (m.block_crcs.size() > b &&
        file_crc32c(block_path(dir, b)) != m.block_crcs[b])
      throw CrcMismatchError("block " + std::to_string(b) +
                             " fails its manifest CRC — repair it before "
                             "updating");

  std::vector<size_t> touched;
  for (const Patch& patch : patches) {
    const Segment& seg = *patch.seg;
    std::vector<Buffer> pieces =
        read_pieces(ins, seg.block_offset, seg.block_len);
    std::vector<size_t> seg_touched;
    for (size_t c = patch.first_chunk; c < patch.end_chunk; ++c) {
      const size_t src = seg.file_offset + c * seg.chunk - offset;
      const size_t avail = std::min(seg.chunk, patch.hi - offset - src);
      Buffer padded;
      ConstByteSpan chunk_data = data.subspan(src, avail);
      if (avail < seg.chunk) {  // EOF-clamped final partial chunk
        padded.assign(seg.chunk, 0);
        std::copy(chunk_data.begin(), chunk_data.end(), padded.begin());
        chunk_data = padded;
      }
      const auto t = engine.update_chunk(pieces, c, chunk_data, threads);
      seg_touched.insert(seg_touched.end(), t.begin(), t.end());
    }
    std::sort(seg_touched.begin(), seg_touched.end());
    seg_touched.erase(std::unique(seg_touched.begin(), seg_touched.end()),
                      seg_touched.end());

    // Write back the patched pieces concurrently (positional, in place).
    std::vector<io::File> outs;
    std::vector<io::OpRef> ops;
    outs.reserve(seg_touched.size());
    ops.reserve(seg_touched.size());
    for (size_t b : seg_touched) {
      outs.push_back(io::File::open_rw(block_path(dir, b)));
      ops.push_back(io::AsyncIo::global().submit_write(
          outs.back(), pieces[b].data(), pieces[b].size(), seg.block_offset));
    }
    io::AsyncIo::wait_all(ops);
    touched.insert(touched.end(), seg_touched.begin(), seg_touched.end());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Refresh the CRCs of rewritten blocks with a streaming pass (a block may
  // be far larger than the piece that changed).
  for (size_t b : touched)
    if (m.block_crcs.size() > b)
      m.block_crcs[b] = file_crc32c(block_path(dir, b));
  // The original may have grown into previously zero padding; keep the
  // recorded size monotone.
  m.original_bytes = std::max(m.original_bytes, offset + data.size());
  const std::string serialized = m.serialize();
  write_file_atomic(dir / "MANIFEST",
                    ConstByteSpan(
                        reinterpret_cast<const uint8_t*>(serialized.data()),
                        serialized.size()));
  return touched;
}

VerifyReport verify_archive(const fs::path& dir) {
  const Manifest m = read_manifest(dir);
  const core::GalloperCode code = m.make_code();
  VerifyReport report;
  std::vector<size_t> usable;
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const fs::path p = block_path(dir, b);
    if (!fs::exists(p)) {
      report.missing.push_back(b);
      continue;
    }
    // Streamed CRC: verification of an arbitrarily large block holds one
    // kIoPiece buffer, never the block.
    const bool size_ok = fs::file_size(p) == m.block_bytes;
    const bool crc_ok = m.block_crcs.size() <= b  // no CRC recorded: trust
                            ? size_ok
                            : size_ok && file_crc32c(p) == m.block_crcs[b];
    if (!crc_ok) {
      report.corrupt.push_back(b);
      continue;
    }
    usable.push_back(b);
  }
  report.decodable = code.decodable(usable);
  return report;
}

std::string format_plan_stats() {
  std::ostringstream out;
  const codes::PlanCacheStats cs = codes::PlanCache::global().stats();
  out << "plan cache: ";
  if (cs.capacity == 0) {
    out << "disabled (GALLOPER_PLAN_CACHE=off)\n";
  } else {
    const uint64_t lookups = cs.hits + cs.misses;
    out << cs.entries << "/" << cs.capacity << " entries, " << cs.hits
        << " hits / " << cs.misses << " misses";
    if (lookups > 0)
      out << " (" << static_cast<int>(100.0 * static_cast<double>(cs.hits) /
                                      static_cast<double>(lookups))
          << "% hit rate)";
    out << ", " << cs.evictions << " evictions\n";
  }
  for (size_t i = 0; i < codes::kNumPlanOps; ++i) {
    const auto op = static_cast<codes::PlanOp>(i);
    const codes::PlanOpStats st = codes::plan_op_stats(op);
    if (st.plans == 0 && st.execs == 0) continue;
    out << "  " << codes::plan_op_name(op) << ": " << st.plans
        << " plans, " << st.execs << " executions";
    if (st.plans > 0)
      out << ", mean plan "
          << static_cast<double>(st.plan_ns) /
                 static_cast<double>(st.plans) * 1e-3
          << " us";
    if (st.execs > 0)
      out << ", mean execute "
          << static_cast<double>(st.exec_ns) /
                 static_cast<double>(st.execs) * 1e-3
          << " us";
    out << "\n";
  }
  const codes::BatchExecStats bs = codes::batch_exec_stats();
  if (bs.calls > 0) {
    out << "batched executor: " << bs.calls << " dispatches, " << bs.rows
        << " rows, " << static_cast<double>(bs.bytes) * 1e-6 << " MB";
    if (bs.ns > 0)
      out << ", " << static_cast<double>(bs.bytes) /
                         static_cast<double>(bs.ns)
          << " GB/s";
    out << "\n";
  }
  const util::BufferPool& pool = util::BufferPool::global();
  const util::BufferPoolStats ps = pool.stats();
  out << "buffer pool: ";
  if (!pool.enabled()) out << "recycling disabled (GALLOPER_BUFFER_POOL=off), ";
  out << ps.hits << " hits / " << ps.misses << " misses";
  if (ps.hits + ps.misses > 0)
    out << " (" << static_cast<int>(100.0 * ps.hit_rate()) << "% hit rate)";
  out << ", " << ps.bypass << " bypass, peak "
      << static_cast<double>(ps.peak_outstanding_bytes) * 1e-6
      << " MB outstanding, "
      << static_cast<double>(ps.cached_bytes) * 1e-6 << " MB cached\n";
  const io::IoStats is = io::AsyncIo::global().stats();
  out << "async io: " << is.ops << " ops (" << is.reads << " reads, "
      << is.writes << " writes, " << is.fetches << " fetches), "
      << static_cast<double>(is.bytes_read) * 1e-6 << " MB read, "
      << static_cast<double>(is.bytes_written) * 1e-6 << " MB written, "
      << is.threads << " threads, queue peak " << is.queue_peak
      << ", O_DIRECT " << (is.odirect ? "on" : "off") << "\n";
  if (is.ops > 0)
    out << "  op latency p50 " << is.p50_s * 1e3 << " ms, p99 "
        << is.p99_s * 1e3 << " ms, " << is.hedges_issued
        << " hedges issued / " << is.hedges_won << " won, " << is.cancelled
        << " cancelled\n";
  if (is.hedges_issued + is.hedge_denied > 0)
    out << "  hedge budget "
        << static_cast<double>(is.hedge_bytes_granted) * 1e-6
        << " MB granted, " << is.hedge_denied << " denied ("
        << static_cast<double>(is.hedge_bytes_denied) * 1e-6 << " MB), "
        << (is.hedge_budget_pct < 0
                ? std::string("unlimited")
                : std::to_string(static_cast<int>(is.hedge_budget_pct)) +
                      "% of fetched bytes")
        << "\n";
  const client::BlockCache& bc = client::BlockCache::global();
  const client::BlockCacheStats bcs = bc.stats();
  out << "block cache: ";
  if (!bc.enabled()) {
    out << "off (GALLOPER_CLIENT_CACHE=off)\n";
  } else {
    out << bcs.hits << " hits / " << bcs.misses << " misses";
    if (bcs.hits + bcs.misses > 0)
      out << " (" << static_cast<int>(100.0 * bcs.hit_rate()) << "% hit rate)";
    out << ", " << static_cast<double>(bcs.hit_bytes) * 1e-6
        << " MB served, " << bcs.evictions << " evictions, "
        << bcs.invalidations << " invalidations, "
        << static_cast<double>(bcs.resident_bytes) * 1e-6 << "/"
        << static_cast<double>(bcs.capacity_bytes) * 1e-6
        << " MB resident (" << bcs.shards << " shards)\n";
  }
  const client::ClientStats cl = client::client_stats();
  if (cl.reads + cl.writes > 0) {
    const client::AdmissionControl::Stats as =
        client::AdmissionControl::global().stats();
    const util::LatencyHistogram& hist = client::client_latency_histogram();
    out << "client: " << cl.reads << " reads / " << cl.writes << " writes, "
        << static_cast<double>(cl.bytes_read) * 1e-6 << " MB read, "
        << static_cast<double>(cl.bytes_written) * 1e-6 << " MB written, "
        << cl.batches << " batches, " << cl.fallbacks << " fallbacks\n"
        << "  admission " << as.admitted << " admitted / " << as.waited
        << " waited, peak " << as.peak << "/" << as.limit << "\n"
        << "  call latency p50 " << hist.quantile_s(0.50) * 1e3
        << " ms, p99 " << hist.quantile_s(0.99) * 1e3 << " ms, p99.9 "
        << hist.quantile_s(0.999) * 1e3 << " ms\n";
  }
  const mr::MrStats ms = mr::mr_stats();
  if (ms.jobs > 0) {
    out << "mr: " << ms.jobs << " jobs, " << ms.splits_mapped
        << " splits mapped (" << ms.degraded_splits << " degraded), "
        << static_cast<double>(ms.bytes_original) * 1e-6
        << " MB read original, "
        << static_cast<double>(ms.bytes_decoded) * 1e-6 << " MB decoded\n"
        << "  pairs emitted " << ms.pairs_emitted << ", pairs shuffled "
        << ms.pairs_shuffled << "\n"
        << "  phase walls: map " << static_cast<double>(ms.map_ns) * 1e-6
        << " ms, shuffle " << static_cast<double>(ms.shuffle_ns) * 1e-6
        << " ms, reduce " << static_cast<double>(ms.reduce_ns) * 1e-6
        << " ms\n";
  }
  return out.str();
}

}  // namespace galloper::cli
