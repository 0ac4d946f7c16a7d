#include "store/file_store.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <tuple>

#include "client/cache.h"
#include "core/input_format.h"
#include "io/fetch.h"
#include "rt/pool.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace galloper::store {

namespace {

// One CRC-32C per segment of `block` — the write-time checksums.
std::vector<uint32_t> segment_crcs(ConstByteSpan block) {
  std::vector<uint32_t> crcs(segment_count(block.size()));
  for (size_t g = 0; g < crcs.size(); ++g)
    crcs[g] = crc32c(block.subspan(g * kSegmentBytes,
                                   segment_size(block.size(), g)));
  return crcs;
}

// Moves `bytes` into one shared owner and returns its segments, laid out
// as a block's are (every segment full but the last). No byte is copied.
std::vector<Segment> share_segments(Buffer bytes) {
  return share_pieces(std::move(bytes), kSegmentBytes);
}

// Releases blocks drop_locked took: buffers smaller than their block (an
// update's windows) return their pages, since the repair that follows
// allocates whole blocks and the pool would keep the windows resident in
// bins it never allocates from; whole-block buffers stay committed for it.
void release_dropped(std::vector<std::vector<Segment>>& dropped) {
  for (std::vector<Segment>& segs : dropped) {
    size_t bytes = 0;
    for (const Segment& s : segs) bytes += s.size();
    release_pieces(segs, bytes);
  }
}

// The segments back to back in one new buffer.
Buffer join(const std::vector<Segment>& segs) {
  size_t size = 0;
  for (const Segment& s : segs) size += s.size();
  Buffer out(size);
  uint8_t* dst = out.data();
  for (const Segment& s : segs) dst = std::copy_n(s.data(), s.size(), dst);
  return out;
}

// The block as one span when its segments are one contiguous run (as
// written, or compacted by FileStore::block), else nullopt.
std::optional<ConstByteSpan> contiguous(const std::vector<Segment>& segs) {
  for (size_t g = 1; g < segs.size(); ++g)
    if (!segs[g - 1].followed_by(segs[g])) return std::nullopt;
  const uint8_t* end = segs.back().data() + segs.back().size();
  return ConstByteSpan(segs.front().data(), end);
}

// A block's segments and checksums as one shared-lock hold saw them. The
// segments are immutable, so a check run later, unlocked, checks exactly
// the bytes the holder goes on to use.
struct BlockRefs {
  std::vector<Segment> segs;
  std::vector<uint32_t> crcs;

  // Index of the first segment whose bytes do not match its checksum;
  // nullopt if all do. Adds the bytes it checked to *counter when given.
  std::optional<size_t> first_bad(std::atomic<size_t>* counter = nullptr) const {
    size_t g = 0, checked = 0;
    for (; g < segs.size(); ++g) {
      checked += segs[g].size();
      if (crc32c(*segs[g]) != crcs[g]) break;
    }
    if (counter) counter->fetch_add(checked, std::memory_order_relaxed);
    return g < segs.size() ? std::optional<size_t>(g) : std::nullopt;
  }
};

// Transient read faults are retried in place this many times per fetch.
constexpr size_t kReadAttempts = 3;

// Whether every row covering file bytes [lo, hi) decodes under `plan`.
bool rows_solvable(const codes::CodecPlan& plan, size_t chunk, size_t lo,
                   size_t hi) {
  for (size_t c = lo / chunk; c * chunk < hi; ++c)
    if (!plan.row(c).solvable) return false;
  return true;
}

// One block's update window: the sorted segments covering the stripes an
// update writes in that block, copied back to back. Every segment but a
// block's last is full, so block byte x sits at i·kSegmentBytes +
// x % kSegmentBytes of the copy when x's segment is segs[i], and a stripe
// — whose covering segments are consecutive ids — is contiguous in it.
struct UpdateWindow {
  std::vector<size_t> segs;
  BlockRefs stored;  // the segments the copy is made from
  Buffer bytes;
  std::vector<uint32_t> crcs;  // of the patched segments
  // The patched segments, owned by the window's buffer; once installed,
  // the segments they replaced (released after the exclusive lock).
  std::vector<Segment> installed;
  // What the verify saw, re-checked by the install.
  uint64_t generation = 0;
  size_t server = 0;
  uint64_t epoch = 0;

  ByteSpan at(size_t block_offset, size_t length) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(segs.begin(), segs.end(),
                         block_offset / kSegmentBytes) -
        segs.begin());
    return ByteSpan(bytes).subspan(
        i * kSegmentBytes + block_offset % kSegmentBytes, length);
  }
};

}  // namespace

// Every store data path that touches more than one block runs in parallel:
// the read core (finish_read) and repair gather their blocks as concurrent
// fetches on the async I/O pool (io::AsyncIo) — the read core fetching only
// the verified segments its plan reads; scrub's pure-CPU checksum sweep
// stays on the compute pool (rt::parallel_for) — it scales with cores, not
// with in-flight syscalls, and its in-memory latencies must not pollute
// the kFetch histogram that feeds the hedge deadline.
// Determinism contract: ALL fault-injector decisions (latency,
// transient failures) are drawn on the calling thread, in slot (block)
// order, for the fetches actually issued, before anything is submitted, so
// the injector's rng sequence never depends on how the I/O threads
// interleave. Fetches only read shared state; every mutation (quarantine,
// store-back) happens after the fetch set is joined.
//
// Locking discipline (mu_ is the block-state reader/writer lock):
//  - probes/decodes take mu_ SHARED, re-checking residency inside (a
//    concurrent reader may have quarantined the block since submission);
//  - quarantine/install and an update's install take mu_ EXCLUSIVE (an
//    update verifies and copies its windows under mu_ SHARED);
//  - mu_ is never held across a FetchSet await/join, so a probe parked in
//    an injected stall cannot wedge writers (the stall runs BEFORE the
//    probe body via FetchSet's stall_s, outside any lock);
//  - repair_plans_ has its own plans_mu_ (plan compilation never touches
//    block state).

FileStore::FileStore(sim::Cluster& cluster, const codes::ErasureCode& code)
    : cluster_(cluster),
      code_(code),
      cache_uid_(client::next_cache_uid()),
      cache_(&client::BlockCache::global()) {
  GALLOPER_CHECK_MSG(cluster.size() >= code.num_blocks(),
                     "cluster smaller than the code's block count");
  placement_.resize(code.num_blocks());
  for (size_t b = 0; b < placement_.size(); ++b) placement_[b] = b;
}

size_t FileStore::server_of(size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(b < placement_.size());
  return placement_[b];
}

std::vector<size_t> FileStore::placement() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return placement_;
}

void FileStore::set_placement(std::vector<size_t> placement) {
  GALLOPER_CHECK_MSG(placement.size() == code_.num_blocks(),
                     "placement wants one server per block slot");
  std::vector<bool> used(cluster_.size(), false);
  for (size_t s : placement) {
    GALLOPER_CHECK_MSG(s < cluster_.size(), "placement beyond the cluster");
    GALLOPER_CHECK_MSG(!used[s], "placement maps two slots to one server");
    used[s] = true;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  placement_ = std::move(placement);
}

void FileStore::reassign_block(size_t b, size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  GALLOPER_CHECK_MSG(cluster_.server(server).alive(),
                     "cannot reassign a block onto a dead server");
  std::unique_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(b < placement_.size());
  for (size_t o = 0; o < placement_.size(); ++o)
    GALLOPER_CHECK_MSG(o == b || placement_[o] != server,
                       "server " << server << " already hosts slot " << o);
  placement_[b] = server;
}

FileStore::~FileStore() {
  if (!cache_) return;
  for (FileId id = 0; id < files_.size(); ++id)
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      cache_->invalidate(cache_uid_, id, b,
                         segment_count(file_block_bytes_[id]));
}

void FileStore::drop_locked(FileId id, size_t b,
                            std::vector<std::vector<Segment>>* dropped) {
  if (files_[id][b].empty()) return;
  bump_generation_locked(id, b);
  dropped->push_back(std::move(files_[id][b]));
  files_[id][b].clear();
}

void FileStore::bump_generation_locked(FileId id, size_t b) {
  ++block_gens_[id][b];
  // Drop eagerly (get() would also catch the mismatch) so a hot entry's
  // memory is reclaimed the moment it goes stale.
  if (cache_)
    cache_->invalidate(cache_uid_, id, b,
                       segment_count(file_block_bytes_[id]));
}

uint64_t FileStore::block_generation(FileId id, size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(b < code_.num_blocks());
  return block_gens_[id][b];
}

FileId FileStore::write(ConstByteSpan file) {
  // Encode outside every lock (pure CPU, single-threaded).
  std::vector<Buffer> blocks = code_.encode(file);
  const size_t bbytes = blocks[0].size();
  // Writers serialize on write_mu_ — only write() ever appends to files_,
  // so the id guessed here is the id the append gets. mu_ is NOT held
  // across the injector callbacks: a write gate (the soak harness's) calls
  // back into the store's locked accessors.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  FileId id;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    id = files_.size();
  }
  std::vector<std::vector<Segment>> stored;
  std::vector<std::vector<uint32_t>> crcs;
  stored.reserve(blocks.size());
  crcs.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    auto& b = blocks[i];
    // TRUE checksums first (one pass, one CRC per segment), then the
    // injector's write faults: an injected bit flip / torn write is a
    // silent corruption the CRC paths catch. The file id passed to the
    // injector is the one this write is creating. The encoded buffer then
    // becomes the owner of the block's segments, uncopied.
    crcs.push_back(segment_crcs(b));
    if (injector_)
      injector_->on_write(id, i, std::span<uint8_t>(b.data(), b.size()));
    stored.push_back(share_segments(std::move(b)));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  file_block_bytes_.push_back(bbytes);
  files_.push_back(std::move(stored));
  checksums_.push_back(std::move(crcs));
  block_gens_.emplace_back(code_.num_blocks(), 0);
  update_mu_.push_back(std::make_unique<std::mutex>());
  return id;
}

size_t FileStore::num_files() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return files_.size();
}

size_t FileStore::block_bytes(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  return file_block_bytes_[id];
}

size_t FileStore::file_bytes(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  const size_t chunk =
      file_block_bytes_[id] / code_.engine().stripes_per_block();
  return code_.engine().num_chunks() * chunk;
}

bool FileStore::block_available_locked(FileId id, size_t b) const {
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(b < code_.num_blocks());
  return !files_[id][b].empty() && cluster_.server(placement_[b]).alive();
}

std::optional<ConstByteSpan> FileStore::block(FileId id, size_t b) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!block_available_locked(id, b)) return std::nullopt;
    if (const auto span = contiguous(files_[id][b])) return span;
  }
  // Segments of several owners (an update's window, a rotted segment):
  // compact them into one allocation. The bytes and checksums stay the
  // same, so no generation moves, and holders of the old segments keep
  // theirs.
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!block_available_locked(id, b)) return std::nullopt;
  std::vector<Segment>& segs = files_[id][b];
  if (const auto span = contiguous(segs)) return span;
  segs = share_segments(join(segs));
  return contiguous(segs);
}

bool FileStore::block_available(FileId id, size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return block_available_locked(id, b);
}

void FileStore::fail_server(size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  // Epoch bump FIRST, sweep second: a concurrent repair install holds the
  // exclusive lock and re-checks the epoch under it, so it either installs
  // before this sweep (and the sweep resets it — lost, consistent) or sees
  // the bumped epoch and aborts. Either order leaves the block lost.
  cluster_.server(server).fail();
  std::vector<std::vector<Segment>> dropped;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (size_t b = 0; b < placement_.size(); ++b)
      if (placement_[b] == server)
        for (FileId id = 0; id < files_.size(); ++id)
          drop_locked(id, b, &dropped);
  }
  release_dropped(dropped);
}

void FileStore::revive_server(size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  cluster_.server(server).recover();
}

std::vector<size_t> FileStore::available_blocks_locked(FileId id) const {
  std::vector<size_t> out;
  for (size_t b = 0; b < code_.num_blocks(); ++b)
    if (block_available_locked(id, b)) out.push_back(b);
  return out;
}

std::vector<size_t> FileStore::lost_blocks(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  std::vector<size_t> out;
  for (size_t b = 0; b < code_.num_blocks(); ++b)
    if (files_[id][b].empty()) out.push_back(b);
  return out;
}

bool FileStore::all_recoverable() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (FileId id = 0; id < files_.size(); ++id)
    if (!code_.decodable(available_blocks_locked(id))) return false;
  return true;
}

std::optional<Buffer> FileStore::read(FileId id) const {
  std::map<size_t, std::vector<Segment>> stored;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    for (size_t b : available_blocks_locked(id)) stored[b] = files_[id][b];
  }
  // The segments are immutable: decode them unlocked, joining the blocks
  // an update or a rot split across owners.
  std::vector<Buffer> joined;
  joined.reserve(stored.size());
  std::map<size_t, ConstByteSpan> view;
  for (const auto& [b, segs] : stored) {
    std::optional<ConstByteSpan> span = contiguous(segs);
    if (!span) span = ConstByteSpan(joined.emplace_back(join(segs)));
    view.emplace(b, *span);
  }
  return code_.decode(view);
}

client::BlockCache* FileStore::cache_enabled() const {
  return cache_ != nullptr && cache_->enabled() ? cache_ : nullptr;
}

std::optional<Buffer> FileStore::read_original_split(FileId id, size_t b,
                                                     size_t block_offset,
                                                     size_t length) {
  GALLOPER_CHECK_MSG(length > 0, "empty split read");
  GALLOPER_CHECK(b < code_.num_blocks());
  // Inside one run, chunks are adjacent in the block and in the file, so
  // the run's own offsets map the range.
  const core::InputFormat fmt(code_, block_bytes(id));
  const auto& runs = fmt.splits();
  const auto run = std::find_if(runs.begin(), runs.end(), [&](const auto& r) {
    return r.block == b && r.block_offset <= block_offset &&
           block_offset + length <= r.block_offset + r.length;
  });
  GALLOPER_CHECK_MSG(run != runs.end(),
                     "split [" << block_offset << ", " << block_offset + length
                               << ") of block " << b
                               << " is not inside one original-data run");
  return read_range(id, run->file_offset + (block_offset - run->block_offset),
                    length);
}

std::vector<size_t> FileStore::update_range(FileId id, size_t offset,
                                            ConstByteSpan data) {
  const codes::CodecEngine& engine = code_.engine();
  size_t bbytes = 0;
  std::mutex* file_mu = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    bbytes = file_block_bytes_[id];
    file_mu = update_mu_[id].get();
  }
  const size_t chunk = bbytes / engine.stripes_per_block();
  GALLOPER_CHECK_MSG(offset % chunk == 0 && data.size() % chunk == 0,
                     "updates must be chunk-aligned (chunk = " << chunk
                                                               << " bytes)");
  const size_t first = offset / chunk;
  const size_t count = data.size() / chunk;
  GALLOPER_CHECK(first + count <= engine.num_chunks());

  // The windows, one per block the range's chunk updates write, each
  // stripe covered once however many chunks write it.
  std::map<size_t, UpdateWindow> windows;
  for (size_t c = first; c < first + count; ++c)
    for (const codes::StripeRef& s : engine.update_stripes(c))
      for (size_t g = s.pos * chunk / kSegmentBytes;
           g * kSegmentBytes < (s.pos + 1) * chunk; ++g)
        windows[s.block].segs.push_back(g);
  for (auto& [b, w] : windows) {
    std::sort(w.segs.begin(), w.segs.end());
    w.segs.erase(std::unique(w.segs.begin(), w.segs.end()), w.segs.end());
  }

  // The store serializes updates to one file: two updates patching parity
  // from the same pre-image would each install a stripe matching neither.
  std::lock_guard<std::mutex> serial(*file_mu);
  constexpr size_t kMaxUpdateAttempts = 8;
  for (size_t attempt = 0; attempt < kMaxUpdateAttempts; ++attempt) {
    // Phase 1: under the shared lock, take each window's stored segments
    // and checksums and capture what the install re-checks; then, unlocked,
    // copy each window (the copy-on-write) and CRC-check the copy segment
    // by segment, so the check covers exactly the bytes the deltas patch.
    // files_ is untouched, so a throw leaves the store as it was.
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (size_t b = 0; b < code_.num_blocks(); ++b)
        GALLOPER_CHECK_MSG(block_available_locked(id, b),
                           "in-place update on a degraded stripe: repair block "
                               << b << " first");
      for (auto& [b, w] : windows) {
        w.generation = block_gens_[id][b];
        w.server = placement_[b];
        w.epoch = cluster_.server(w.server).epoch();
        w.stored.segs.clear();
        w.stored.crcs.clear();
        for (size_t g : w.segs) {
          w.stored.segs.push_back(files_[id][b][g]);
          w.stored.crcs.push_back(checksums_[id][b][g]);
        }
      }
    }
    std::optional<std::pair<size_t, size_t>> bad;  // (block, segment)
    size_t checked = 0;
    for (auto& [b, w] : windows) {
      w.bytes = Buffer((w.segs.size() - 1) * kSegmentBytes +
                       segment_size(bbytes, w.segs.back()));
      for (size_t j = 0; j < w.segs.size() && !bad; ++j) {
        const Segment& src = w.stored.segs[j];
        uint8_t* dst = w.bytes.data() + j * kSegmentBytes;
        std::copy_n(src.data(), src.size(), dst);
        checked += src.size();
        if (crc32c(ConstByteSpan(dst, src.size())) != w.stored.crcs[j])
          bad.emplace(b, w.segs[j]);
      }
      if (bad) break;
    }
    counters_.update_verified_bytes.fetch_add(checked,
                                              std::memory_order_relaxed);
    // A delta update against a silently corrupt segment would recompute
    // its checksum over the corrupt bytes, laundering the damage into a
    // "valid" state no scrub could ever catch. Quarantine and refuse
    // instead — the caller repairs, then retries.
    if (bad) {
      quarantine_if_corrupt(id, bad->first, bad->second);
      GALLOPER_CHECK_MSG(false, "update found block "
                                    << bad->first
                                    << " silently corrupt (quarantined): "
                                       "repair before updating");
    }
    std::vector<size_t> touched;
    std::vector<ByteSpan> stripes;
    for (size_t c = first; c < first + count; ++c) {
      const std::vector<codes::StripeRef>& targets = engine.update_stripes(c);
      stripes.clear();
      for (const codes::StripeRef& s : targets)
        stripes.push_back(windows.at(s.block).at(s.pos * chunk, chunk));
      if (!engine.update_chunk(c, stripes,
                               data.subspan((c - first) * chunk, chunk)))
        continue;
      for (const codes::StripeRef& s : targets) touched.push_back(s.block);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    // Phase 2 (no lock): each written window hits "disk" — one write-fault
    // draw per block. The callbacks run UNLOCKED because a write gate may
    // call back into the store (soak harness). The checksums computed
    // first keep the TRUE values, so a fault is a silent corruption. The
    // window's buffer then becomes the owner of its patched segments.
    for (size_t b : touched) {
      UpdateWindow& w = windows.at(b);
      w.crcs = segment_crcs(w.bytes);
      if (injector_) injector_->on_write(id, b, w.bytes);
      w.installed = share_segments(std::move(w.bytes));
    }

    // Phase 3 (exclusive): install, unless a written block moved on since
    // phase 1 — a kill (epoch), a slot reassignment (placement) or a
    // quarantine/repair (generation). Installing then could resurrect a
    // block onto a dead server or overwrite bytes the window never saw.
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      const bool stale =
          std::any_of(touched.begin(), touched.end(), [&](size_t b) {
            const UpdateWindow& w = windows.at(b);
            return block_gens_[id][b] != w.generation ||
                   placement_[b] != w.server ||
                   cluster_.server(w.server).epoch() != w.epoch;
          });
      if (stale) continue;
      for (size_t b : touched) {
        UpdateWindow& w = windows.at(b);
        // Bump-then-install under one exclusive hold: any cache entry
        // holding the pre-update bytes is stale the instant the new content
        // is visible. The install swaps segments and checksums; no bytes
        // move.
        bump_generation_locked(id, b);
        for (size_t j = 0; j < w.segs.size(); ++j) {
          std::swap(files_[id][b][w.segs[j]], w.installed[j]);
          checksums_[id][b][w.segs[j]] = w.crcs[j];
        }
      }
    }
    // The replaced segments' memory goes back even while the rest of the
    // buffer they were written in (a block, an older window) stays stored.
    for (auto& [b, w] : windows) {
      w.stored = {};
      release_pieces(w.installed);
    }
    return touched;
  }
  throw fault::TransientError("blocks of an update of file " +
                              std::to_string(id) +
                              " kept changing between verify and install");
}

void FileStore::corrupt_block(FileId id, size_t block, size_t offset) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(block < code_.num_blocks());
  GALLOPER_CHECK_MSG(!files_[id][block].empty(),
                     "cannot corrupt a lost block");
  GALLOPER_CHECK(offset < file_block_bytes_[id]);
  // Copy-on-write: the rotted segment replaces the stored one, and a
  // reader or cache entry holding the old one keeps the verified bytes,
  // the way a client's copy survives disk rot.
  Segment& seg = files_[id][block][offset / kSegmentBytes];
  Buffer rotted(seg.size());
  std::copy_n(seg.data(), seg.size(), rotted.data());
  rotted[offset % kSegmentBytes] ^= 0x01;
  seg = share_pieces(std::move(rotted), kSegmentBytes)[0];
}

std::vector<FileStore::CorruptBlock> FileStore::scrub(bool quarantine) {
  // CRC every stored block on the CPU pool: the jobs are independent
  // (disjoint reads, one flag byte each), and a full-store scrub is pure
  // checksum bandwidth — the one store operation that scales with TOTAL
  // stored bytes, not one stripe, so it wants every core, not the (narrow,
  // blocking-sized) I/O pool. Keeping it off AsyncIo also keeps the kFetch
  // latency histogram — which sets the hedge deadline — describing real
  // block fetches only. The scan takes every block's segments and
  // checksums under the shared lock and CRCs them unlocked: the segments
  // are immutable, so the check covers what the store held at the snapshot.
  std::vector<std::pair<CorruptBlock, BlockRefs>> jobs;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (FileId id = 0; id < files_.size(); ++id)
      for (size_t b = 0; b < code_.num_blocks(); ++b)
        if (!files_[id][b].empty())
          jobs.push_back({{id, b}, {files_[id][b], checksums_[id][b]}});
  }
  std::vector<uint8_t> bad(jobs.size(), 0);
  rt::parallel_for(rt::ThreadPool::global(), jobs.size(),
                   rt::ThreadPool::default_threads(), [&](size_t j) {
                     if (jobs[j].second.first_bad()) bad[j] = 1;
                   });

  // Re-verify each hit under the exclusive lock before quarantining: a
  // concurrent reader may have quarantined-and-healed the block since the
  // scan, and resetting the healed copy would turn a repaired block back
  // into an erasure. Serial callers see the identical report.
  std::vector<CorruptBlock> corrupt;
  std::vector<std::vector<Segment>> dropped;
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (!bad[j]) continue;
    const CorruptBlock& c = jobs[j].first;
    if (files_[c.file][c.block].empty()) continue;
    if (!BlockRefs{files_[c.file][c.block], checksums_[c.file][c.block]}
             .first_bad())
      continue;
    corrupt.push_back(c);
    if (quarantine) drop_locked(c.file, c.block, &dropped);
  }
  lock.unlock();
  release_dropped(dropped);
  return corrupt;
}

FileStore::ScrubReport FileStore::scrub_and_repair() {
  ScrubReport report;
  // Parallel CRC pass + quarantine, exactly like scrub(); then the rebuild
  // loop below runs strictly after it, because a repair READS peer blocks —
  // rebuilding under the parallel scan would race it.
  report.corrupt = scrub(/*quarantine=*/true);

  // Multi-pass healing: when several blocks of one file were quarantined,
  // block A may be unrepairable until block B is rebuilt (every quarantined
  // block is an erasure while it is down). Sweep until a full pass makes no
  // progress; transient injected read faults count as progress-still-
  // possible, with a pass cap so a pathological schedule cannot spin
  // forever.
  std::vector<CorruptBlock> pending = report.corrupt;
  constexpr size_t kMaxPasses = 8;
  for (size_t pass = 0; pass < kMaxPasses && !pending.empty(); ++pass) {
    bool progress = false;
    std::vector<CorruptBlock> remaining;
    for (const CorruptBlock& c : pending) {
      if (!cluster_.server(server_of(c.block)).alive()) {
        remaining.push_back(c);  // nowhere to store the rebuilt bytes (yet)
        continue;
      }
      try {
        if (repair(c.file, c.block)) {
          ++report.repaired;
          progress = true;
        } else {
          remaining.push_back(c);
        }
      } catch (const fault::TransientError&) {
        remaining.push_back(c);
        progress = true;  // a retry redraws the fault schedule
      }
    }
    pending = std::move(remaining);
    if (!progress) break;
  }
  report.unrecoverable = pending.size();
  return report;
}

FileStore::ReadStats FileStore::read_stats() const {
  ReadStats s;
  s.verified_reads = counters_.verified_reads.load(std::memory_order_relaxed);
  s.verified_bytes = counters_.verified_bytes.load(std::memory_order_relaxed);
  s.crc_failures = counters_.crc_failures.load(std::memory_order_relaxed);
  s.degraded_reads = counters_.degraded_reads.load(std::memory_order_relaxed);
  s.transient_faults =
      counters_.transient_faults.load(std::memory_order_relaxed);
  s.auto_repairs = counters_.auto_repairs.load(std::memory_order_relaxed);
  s.replanned_reads =
      counters_.replanned_reads.load(std::memory_order_relaxed);
  s.update_verified_bytes =
      counters_.update_verified_bytes.load(std::memory_order_relaxed);
  s.repair_verified_bytes =
      counters_.repair_verified_bytes.load(std::memory_order_relaxed);
  return s;
}

std::optional<double> FileStore::draw_fetch() {
  if (injector_ == nullptr) return 0.0;
  const double stall_s = injector_->read_latency();
  for (size_t tries = 0; injector_->read_fails();) {
    counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
    if (++tries >= kReadAttempts) return std::nullopt;
  }
  return stall_s;
}

bool FileStore::quarantine_if_corrupt(FileId id, size_t b, size_t seg) {
  std::vector<std::vector<Segment>> dropped;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const std::vector<Segment>& blk = files_[id][b];
    if (blk.empty() || crc32c(*blk[seg]) == checksums_[id][b][seg])
      return false;
    counters_.crc_failures.fetch_add(1, std::memory_order_relaxed);
    drop_locked(id, b, &dropped);
  }
  release_dropped(dropped);
  return true;
}

void FileStore::self_heal(FileId id, size_t b) {
  if (!cluster_.server(server_of(b)).alive()) return;
  try {
    if (repair(id, b))
      counters_.auto_repairs.fetch_add(1, std::memory_order_relaxed);
  } catch (const fault::TransientError&) {
    // Helpers kept failing transiently; scrub/recovery will retry later.
  }
}

FileStore::SegmentFetch FileStore::fetch_segments(
    FileId id, size_t b, const std::vector<size_t>& segs) const {
  SegmentFetch out;
  std::vector<uint32_t> crcs;
  out.segments.reserve(segs.size());
  crcs.reserve(segs.size());
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!block_available_locked(id, b)) return out;  // kGone
    for (size_t g : segs) {
      out.segments.push_back(files_[id][b][g]);
      crcs.push_back(checksums_[id][b][g]);
    }
    out.generation = block_gens_[id][b];
  }
  // The CRC runs unlocked over exactly the segments handed out: they are
  // immutable, so the check covers the bytes delivered.
  out.status = FetchStatus::kOk;
  size_t checked = 0;
  for (size_t j = 0; j < segs.size(); ++j) {
    checked += out.segments[j].size();
    if (crc32c(*out.segments[j]) != crcs[j]) {
      out.segments.clear();
      out.status = FetchStatus::kCorrupt;
      out.bad_segment = segs[j];
      break;
    }
  }
  counters_.verified_bytes.fetch_add(checked, std::memory_order_relaxed);
  return out;
}

// First-wins landing slot for one block's fetch: a primary fetch and its
// hedged re-fetch run the same body, the first to finish publishes `got`,
// and the loser's copies die with the loser.
struct FileStore::FetchLanding {
  std::mutex mu;
  bool filled = false;
  SegmentFetch got;
};

// One window batch: file bytes [lo, hi) and, per plan slot, the segments
// this batch fetches (empty: staged or claimed already) and the landing
// that receives them, under one FetchSet keyed by slot.
struct FileStore::Batch {
  size_t lo = 0, hi = 0;
  std::vector<std::vector<size_t>> segs;
  std::vector<std::unique_ptr<FetchLanding>> landing;
  std::unique_ptr<io::FetchSet> fetches = std::make_unique<io::FetchSet>();
};

FileStore::ReadSession FileStore::begin_verified_read(FileId id) {
  ReadSession session;
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  session.available = available_blocks_locked(id);
  session.generations = block_gens_[id];
  session.block_bytes = file_block_bytes_[id];
  return session;
}

std::optional<Buffer> FileStore::read_range(FileId id, size_t offset,
                                            size_t length) {
  RangeRead read = open_read(id, offset, length);
  return finish_read(read, code_.engine().num_chunks(), /*depth=*/1);
}

FileStore::RangeRead FileStore::open_read(FileId id, size_t offset,
                                          size_t length) {
  RangeRead r;
  r.id_ = id;
  r.offset_ = offset;
  r.length_ = length;
  r.session_ = begin_verified_read(id);
  const size_t bbytes = r.session_.block_bytes;
  const size_t chunk = bbytes / code_.engine().stripes_per_block();
  const size_t fbytes = code_.engine().num_chunks() * chunk;
  GALLOPER_CHECK_MSG(offset + length <= fbytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << fbytes);
  if (length == 0) return r;
  auto plan = code_.engine().plan_decode_fast(r.session_.available);
  if (!rows_solvable(*plan, chunk, offset, offset + length)) return r;

  // Stage what the cache holds at the snapshot generations: a mutation
  // since bumps a generation, so a hit is a segment that was current when
  // this read began — the guarantee any read has.
  r.plan_ = std::move(plan);
  r.staged_ = StagedSegments(code_.num_blocks(), bbytes);
  client::BlockCache* cache = cache_enabled();
  const auto need =
      plan_source_segments(*r.plan_, chunk, offset, offset + length);
  for (size_t slot = 0; slot < need.size(); ++slot) {
    const size_t b = r.plan_->source_blocks()[slot];
    for (size_t g : need[slot]) {
      Segment hit = cache ? cache->get(cache_uid_, id, b, g,
                                       r.session_.generations[b])
                          : nullptr;
      if (hit == nullptr) {
        r.needs_fetch_ = true;
      } else {
        r.staged_.put(b, g, std::move(hit));
      }
    }
  }
  return r;
}

std::optional<Buffer> FileStore::finish_read(RangeRead& r,
                                             size_t batch_chunks,
                                             size_t depth) {
  GALLOPER_CHECK(batch_chunks >= 1 && depth >= 1);
  if (r.length_ == 0) return Buffer();
  if (r.plan_ == nullptr) return std::nullopt;
  const FileId id = r.id_;
  const size_t lo = r.offset_, hi = r.offset_ + r.length_;
  const size_t bbytes = r.session_.block_bytes;
  const size_t chunk = bbytes / code_.engine().stripes_per_block();
  const size_t n = code_.num_blocks();
  StagedSegments& staged = r.staged_;
  std::shared_ptr<const codes::CodecPlan> plan = r.plan_;
  std::optional<Buffer> out(std::in_place, r.length_);
  if (!r.needs_fetch_) {
    decode_staged(*plan, chunk, lo, hi, staged, out->data());
    return out;
  }
  counters_.verified_reads.fetch_add(1, std::memory_order_relaxed);
  client::BlockCache* cache = cache_enabled();

  std::vector<std::pair<size_t, size_t>> spans;  // batch [lo, hi)
  for (size_t c = lo / chunk; c * chunk < hi; c += batch_chunks)
    spans.emplace_back(std::max(lo, c * chunk),
                       std::min(hi, (c + batch_chunks) * chunk));

  // claimed[b][g]: staged, or in flight in the window — a segment is
  // fetched and verified at most once per read, by the first batch that
  // reads it, and later batches decode from the same copy.
  const size_t nseg = segment_count(bbytes);
  std::vector<std::vector<bool>> claimed(n, std::vector<bool>(nseg));
  const auto reset_claims = [&] {
    for (size_t b = 0; b < n; ++b)
      for (size_t g = 0; g < nseg; ++g) claimed[b][g] = staged.has(b, g);
  };
  reset_claims();
  std::vector<bool> dropped(n, false);
  std::vector<size_t> corrupt;  // blocks this read quarantined
  bool pinned = false;          // no draws, stall-free fetches
  bool replan = false;

  const auto segment_bytes = [&](const std::vector<size_t>& segs) {
    size_t total = 0;
    for (size_t g : segs) total += segment_size(bbytes, g);
    return total;
  };
  // The body a slot's primary fetch and its hedged re-fetch share.
  const auto fetch_body = [&](Batch& f, size_t s) {
    return [this, id, b = plan->source_blocks()[s], segs = f.segs[s],
            l = f.landing[s].get()] {
      if (injector_) injector_->crash_point("store.fetch");
      SegmentFetch got = fetch_segments(id, b, segs);
      const bool ok = got.status == FetchStatus::kOk;
      std::lock_guard<std::mutex> lock(l->mu);
      if (!l->filled) {
        l->got = std::move(got);
        l->filled = true;
      }
      return ok;
    };
  };

  // Starting a batch: per plan slot, the segments no batch has claimed,
  // then the fault schedule of the fetches it issues, drawn here in slot
  // order — a block whose reads keep failing is dropped before anything
  // of the batch is submitted — then one fetch per slot.
  const auto start = [&](size_t i) {
    Batch f;
    std::tie(f.lo, f.hi) = spans[i];
    const std::vector<size_t>& blocks = plan->source_blocks();
    f.segs = plan_source_segments(*plan, chunk, f.lo, f.hi);
    f.landing.resize(blocks.size());
    std::vector<double> stall(blocks.size(), 0.0);
    for (size_t s = 0; s < blocks.size(); ++s) {
      std::vector<bool>& mine = claimed[blocks[s]];
      std::erase_if(f.segs[s], [&](size_t g) {
        if (mine[g]) return true;
        mine[g] = true;
        return false;
      });
      if (f.segs[s].empty() || pinned) continue;
      const std::optional<double> stall_s = draw_fetch();
      if (!stall_s) {
        replan = dropped[blocks[s]] = true;
        return f;
      }
      stall[s] = *stall_s;
    }
    for (size_t s = 0; s < blocks.size(); ++s) {
      if (f.segs[s].empty()) continue;
      f.landing[s] = std::make_unique<FetchLanding>();
      f.fetches->fetch(s, stall[s], fetch_body(f, s), /*hedge=*/false,
                       segment_bytes(f.segs[s]));
    }
    return f;
  };

  // Landing a joined batch: verified segments are staged (and cached at
  // the generation they were verified under); a gone or corrupt block is
  // dropped from the read, and a corrupt one quarantined so no later
  // caller trusts it either. Nothing unverified is ever staged or cached.
  const auto land = [&](Batch& f) {
    for (size_t s = 0; s < f.segs.size(); ++s) {
      const std::unique_ptr<FetchLanding> l = std::move(f.landing[s]);
      if (l == nullptr || !l->filled) continue;  // none, or cancelled
      const size_t b = plan->source_blocks()[s];
      const SegmentFetch& got = l->got;
      if (got.status == FetchStatus::kOk) {
        for (size_t j = 0; j < f.segs[s].size(); ++j) {
          if (cache)
            cache->put(cache_uid_, id, b, f.segs[s][j], got.generation,
                       got.segments[j]);
          staged.put(b, f.segs[s][j], got.segments[j]);
        }
        continue;
      }
      replan = dropped[b] = true;
      if (got.status == FetchStatus::kCorrupt &&
          quarantine_if_corrupt(id, b, got.bad_segment))
        corrupt.push_back(b);
    }
  };

  // The window: up to `depth` batches in flight on the I/O pool while the
  // caller decodes the oldest, in order, straight into `out`. Each await
  // is exhaustive; a slot still parked in its injected stall at the hedge
  // deadline is re-fetched stall-free (a budget-denied hedge leaves
  // hedged[s] unset, as if it never fired). Every fetch lands before any
  // mutation: quarantine happens only in land(), after the join. Every
  // batch in the window was started under `plan` (a replan empties the
  // window first). On a throw, ~FetchSet cancels and joins whatever is
  // still in flight.
  std::deque<Batch> window;
  size_t next = 0, done = 0;  // batches started / decoded
  while (done < spans.size()) {
    if (!replan && next < spans.size() && window.size() < depth) {
      window.push_back(start(next++));
      continue;
    }
    if (!replan) {
      Batch& f = window.front();
      std::vector<bool> hedged(f.segs.size(), false);
      f.fetches->await(
          [](const std::vector<size_t>&) { return false; },
          [&](const std::vector<size_t>& pending) {
            for (size_t s : pending) {
              if (hedged[s]) continue;
              hedged[s] = f.fetches->fetch(s, 0.0, fetch_body(f, s),
                                           /*hedge=*/true,
                                           segment_bytes(f.segs[s]));
            }
          });
      f.fetches->join();
      f.fetches->rethrow_any_failure();
      land(f);
      if (!replan) {
        decode_staged(*plan, chunk, f.lo, f.hi, staged,
                      out->data() + (f.lo - lo));
        window.pop_front();
        ++done;
        ++r.batches_;
        continue;
      }
    }
    // Replan: settle the window (keeping whatever verified), then plan
    // over the blocks still available to this read and restart from the
    // first batch not yet decoded. Each replan drops at least one block,
    // so a read replans fewer than n times.
    for (Batch& f : window) {
      f.fetches->cancel_and_join();
      f.fetches->rethrow_any_failure();
      land(f);
    }
    window.clear();
    r.replanned_ = pinned = true;
    replan = false;
    std::vector<size_t> available = begin_verified_read(id).available;
    std::erase_if(available, [&](size_t b) { return dropped[b]; });
    plan = code_.engine().plan_decode_fast(available);
    if (!rows_solvable(*plan, chunk, spans[done].first, hi)) {
      out.reset();
      break;
    }
    reset_claims();
    next = done;
  }
  if (!corrupt.empty())
    counters_.degraded_reads.fetch_add(1, std::memory_order_relaxed);
  if (r.replanned_)
    counters_.replanned_reads.fetch_add(1, std::memory_order_relaxed);

  // Self-heal: rebuild what the read quarantined, so the NEXT read is
  // clean. Plans come from the store's pinned pattern map; the repair
  // draws its own schedule, but only when this read found corruption — a
  // property of the stored bytes, not of timing.
  for (size_t b : corrupt) self_heal(id, b);
  return out;
}

std::shared_ptr<const codes::CodecPlan> FileStore::pinned_repair_plan(
    size_t block_id, const std::vector<size_t>& sorted_helpers,
    const std::vector<size_t>& helpers) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto& plan = repair_plans_[{block_id, sorted_helpers}];
  if (!plan) plan = code_.engine().plan_repair(block_id, helpers);
  return plan;
}

std::optional<std::vector<size_t>> FileStore::repair(FileId id,
                                                     size_t block_id,
                                                     io::AsyncIo* io) {
  GALLOPER_CHECK(block_id < code_.num_blocks());
  if (!cluster_.server(server_of(block_id)).alive())
    return std::nullopt;  // dead target: revive (or reassign) first
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    if (!files_[id][block_id].empty()) return std::vector<size_t>{};
  }

  // Transient helper-read faults (injected) are retried with a fresh
  // helper gather; persistent ones surface as TransientError — distinct
  // from nullopt, which means structurally unrecoverable (or the target
  // server died mid-repair — see the install re-check below).
  constexpr size_t kRepairReadAttempts = 6;
  // Stale-install retries (kill/revive cycle or slot reassignment raced
  // the attempt) don't consume transient-fault attempts, but a chaos actor
  // hammering the target must not pin this call forever.
  constexpr size_t kMaxIncarnationRetries = 8;
  size_t incarnation_retries = 0;
  for (size_t attempt = 0; attempt < kRepairReadAttempts; ++attempt) {
    // Helper selection takes the helpers' segments and checksums under the
    // SHARED lock; the CRC scan of every helper segment then runs unlocked
    // over those immutable segments, which are exactly the bytes the
    // rebuild reads. A mismatch is re-verified and quarantined under the
    // exclusive lock like any other corrupt block (a later pass rebuilds
    // it) and the selection rolls again without it — a silently rotted
    // helper must never launder its corruption into a freshly-checksummed
    // "repaired" block.
    std::vector<size_t> helpers;
    std::map<size_t, BlockRefs> stored;  // helper (and drafted spare) → refs
    size_t bbytes = 0;
    bool already_repaired = false;
    // The attempt's view of the TARGET: which server hosts the slot, and
    // that server's liveness epoch. Everything this attempt rebuilds is
    // only valid for this exact incarnation — the install below re-checks
    // both under the exclusive lock and aborts on any change, because a
    // kill/revive cycle in between means the revive declared the block
    // lost and installing a pre-cycle rebuild would silently resurrect it
    // (the race file_store.h used to merely document).
    // The target's generation is re-checked too: the helpers' segments
    // describe the file as it was while the target was lost, so a rebuild
    // must not land after the target was installed and lost again.
    size_t target_server = 0;
    uint64_t target_epoch = 0, target_gen = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      bbytes = file_block_bytes_[id];
      target_server = placement_[block_id];
      target_epoch = cluster_.server(target_server).epoch();
      target_gen = block_gens_[id][block_id];
      if ((target_epoch & 1) != 0) return std::nullopt;  // died since entry
      if (!files_[id][block_id].empty()) {
        already_repaired = true;  // a concurrent reader healed it first
      } else {
        // Preferred (local) helpers first; generic fallback to all
        // available.
        helpers = code_.repair_helpers(block_id);
        bool helpers_ok = true;
        for (size_t h : helpers)
          helpers_ok &= block_available_locked(id, h);
        if (!helpers_ok) helpers = available_blocks_locked(id);
        for (size_t h : helpers)
          stored[h] = {files_[id][h], checksums_[id][h]};
      }
    }
    if (already_repaired) return std::vector<size_t>{};
    std::vector<std::pair<size_t, size_t>> bad;  // (helper, first bad segment)
    for (size_t h : helpers)
      if (const auto g = stored[h].first_bad(&counters_.repair_verified_bytes))
        bad.emplace_back(h, *g);
    if (!bad.empty()) {
      for (const auto& [h, g] : bad) quarantine_if_corrupt(id, h, g);
      --attempt;  // reselection, not a transient retry
      continue;
    }

    // One compiled plan per (failed, helper-set) pattern, pinned in the
    // store: the Gaussian elimination runs once for the whole storm, and
    // the remaining files' repairs are pure kernel execution.
    std::vector<size_t> want = helpers;
    std::sort(want.begin(), want.end());
    std::shared_ptr<const codes::CodecPlan> plan =
        pinned_repair_plan(block_id, want, helpers);

    // Pre-draw the gather's fault schedule in helper order, breaking at
    // the first failure exactly like the old serial gather loop (the
    // forced-failure tests count on one draw per failed attempt).
    struct HelperFetch {
      size_t helper;
      double stall_s;
    };
    std::vector<HelperFetch> fetch_plan;
    bool gather_failed = false;
    for (size_t h : helpers) {
      const double stall_s = injector_ ? injector_->read_latency() : 0;
      if (injector_ && injector_->read_fails()) {
        counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
        gather_failed = true;
        break;
      }
      fetch_plan.push_back({h, stall_s});
    }
    if (gather_failed) continue;

    // Gather the helpers concurrently. Ready means every planned helper
    // answered — or, once the hedge deadline has fired, any clean set the
    // code can rebuild from (drafted spares). The `hedged` gate keeps
    // no-stall repairs on the pinned plan: a partial subset must never
    // grab a fresh pattern just because its probes finished first.
    io::FetchSet fetches(io ? *io : io::AsyncIo::global());
    bool hedged = false;
    auto fetch_probe = [this] {
      return [this] {
        if (injector_) injector_->crash_point("store.fetch");
        return true;
      };
    };
    for (const HelperFetch& f : fetch_plan)
      fetches.fetch(f.helper, f.stall_s, fetch_probe(), /*hedge=*/false,
                    bbytes);
    fetches.await(
        [&](const std::vector<size_t>& clean) {
          if (std::includes(clean.begin(), clean.end(), want.begin(),
                            want.end()))
            return true;
          return hedged && code_.decodable(clean);
        },
        [&](const std::vector<size_t>& pending) {
          hedged = true;
          // Hedge the slow helpers on a second replica path, and draft
          // CRC-clean spare helpers as an alternate decodable route. No
          // injector draws here: hedges must not perturb the schedule.
          for (size_t h : pending)
            fetches.fetch(h, 0.0, fetch_probe(), /*hedge=*/true, bbytes);
          std::vector<size_t> spares;
          {
            std::shared_lock<std::shared_mutex> lock(mu_);
            for (size_t s : available_blocks_locked(id)) {
              if (s == block_id || stored.contains(s)) continue;
              stored[s] = {files_[id][s], checksums_[id][s]};
              spares.push_back(s);
            }
          }
          for (size_t s : spares) {
            if (stored[s].first_bad(&counters_.repair_verified_bytes)) {
              stored.erase(s);
              continue;
            }
            fetches.fetch(s, 0.0, fetch_probe(), /*hedge=*/true, bbytes);
          }
        });
    // Losers (hedged-over stalls) are cancelled before anything proceeds;
    // an async crash point surfaces here, with the store unmutated.
    fetches.cancel_and_join();
    fetches.rethrow_any_failure();

    const std::vector<size_t> clean = fetches.clean_keys();
    std::vector<size_t> use_helpers;
    std::shared_ptr<const codes::CodecPlan> use_plan;
    if (std::includes(clean.begin(), clean.end(), want.begin(), want.end())) {
      use_helpers = helpers;  // the planned gather completed — pinned plan
      use_plan = plan;
    } else if (code_.decodable(clean)) {
      use_helpers = clean;  // hedged route: rebuild from whoever answered
      use_plan = pinned_repair_plan(block_id, clean, clean);
    } else {
      continue;  // cancelled mid-gather with no decodable subset: retry
    }

    // Rebuild, unlocked, from the verified helper segments: the repair
    // plan's rows are the block's stripe positions in order, so the staged
    // decode writes the block front to back, splitting rows at segment
    // ends as reads do. A helper quarantined or lost since the scan does
    // not matter: its segments stay alive, and verified, in `stored`.
    if (!use_plan->fully_solvable()) return std::nullopt;
    StagedSegments staged(code_.num_blocks(), bbytes);
    for (size_t h : use_helpers) {
      const std::vector<Segment>& segs = stored.at(h).segs;
      for (size_t g = 0; g < segs.size(); ++g) staged.put(h, g, segs[g]);
    }
    Buffer rebuilt(bbytes);
    const auto t0 = std::chrono::steady_clock::now();
    decode_staged(*use_plan, bbytes / code_.engine().stripes_per_block(), 0,
                  bbytes, staged, rebuilt.data());
    codes::record_exec_time(
        codes::PlanOp::kRepair,
        static_cast<uint64_t>(std::chrono::nanoseconds(
                                  std::chrono::steady_clock::now() - t0)
                                  .count()));
    // Crash window: the rebuild finished but the block is not yet
    // installed. A crash here must leave the store exactly as before the
    // repair (minus the pinned plan) — re-running the repair completes it.
    if (injector_) injector_->crash_point("store.repair");
    // The store-back rides the injector's write-fault schedule, UNLOCKED
    // (a write gate may call back into the store's locked accessors).
    if (injector_) injector_->on_write(id, block_id, rebuilt);
    std::vector<Segment> segs = share_segments(std::move(rebuilt));
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      // Liveness-epoch re-check (the revive-vs-in-flight-repair fix): the
      // rebuilt bytes belong to the incarnation captured at attempt start.
      // fail_server bumps the epoch BEFORE its exclusive-lock sweep, so
      // under this lock any kill (or kill/revive cycle, or reassign_block
      // cutover) that raced this attempt is visible here.
      const uint64_t now_epoch = cluster_.server(target_server).epoch();
      const bool reinstalled = files_[id][block_id].empty() &&
                               block_gens_[id][block_id] != target_gen;
      if (placement_[block_id] != target_server || now_epoch != target_epoch ||
          reinstalled) {
        if (placement_[block_id] == target_server && (now_epoch & 1) != 0)
          return std::nullopt;  // target is dead NOW: the block stays lost
        // Kill/revive cycle, slot reassignment or a reinstalled-and-lost
        // target, target usable again: discard the stale rebuild and run a
        // fresh attempt against the new incarnation (helpers re-read, epoch
        // and generation re-captured).
        if (++incarnation_retries > kMaxIncarnationRetries)
          throw fault::TransientError(
              "target of repair of block " + std::to_string(block_id) +
              " kept changing incarnation");
        --attempt;
        continue;
      }
      // A concurrent repair may have won the race; its bytes are as good
      // as ours (both CRC-verified rebuilds of the same block).
      if (files_[id][block_id].empty()) {
        bump_generation_locked(id, block_id);
        files_[id][block_id] = std::move(segs);
      }
    }
    return use_helpers;
  }
  throw fault::TransientError("helper reads for repair of block " +
                              std::to_string(block_id) +
                              " kept failing transiently");
}

}  // namespace galloper::store
