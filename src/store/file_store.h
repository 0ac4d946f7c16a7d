// FileStore: a miniature erasure-coded "distributed file system" over the
// simulated cluster. It stores REAL bytes (every repair and read is
// bit-exact and verified in tests) while the cluster's DES resources
// account simulated time and disk/network I/O — the same split the paper
// has between its C++ coding library and the Hadoop/HDFS deployment.
//
// Placement: block slot b of every file lives on server placement()[b]
// (identity by default — the single-node degenerate case where blocks go
// on servers [0, num_blocks)); extra cluster servers act as replacement
// targets for recovery and as drain destinations. cluster::Coordinator
// installs a topology-aware placement (src/store/placement) and moves
// slots between servers with reassign_block, so every data path below
// runs unchanged against a real multi-node layout.
//
// Storage: every block is one immutable, refcounted VERSION (BlockVersion
// below): its 64 KiB segments (store/segments.h), their write-time
// CRC-32Cs and its generation. Every mutation — write, update, repair, a
// drop, corrupt_block, block()'s compaction — publishes a new version and
// writes into none; installs reuse the segments they keep, so no bytes are
// copied under the lock. The block cache keeps the stored segments.
//
// Verification: reads are range-proportional: one read core plans its
// decode first, then fetches through fetch_segments — the one verified
// fetch primitive — exactly the segments the plan's sources read, CRCs
// them and decodes from those same immutable segments. A corrupt segment
// is quarantined with its whole block and the read replans around it.
// Corruption outside a read's sources is, deliberately, not that read's
// business: scrub() (or a later read that covers it) finds it. Updates
// are range-proportional the same way: update_range verifies, copies and
// re-checksums only the segments covering the stripes its deltas write.
// Scrub and repair check every segment of every block they touch.
//
// The read guarantee: every read, of any length, batch count or number of
// replans, returns the file as it was at its open_read. The open step takes
// every block's version under one shared-lock hold, and all the bytes the
// read stages, fetches or decodes come from those versions.
//
// Thread safety: the data paths (write/read/read_range/update_range/repair/
// scrub and the client-session API) may run concurrently from many client
// threads. The version pointers live under one reader/writer lock: each
// path takes the versions it needs under one shared hold and then CRCs,
// copies and decodes unlocked; each mutation publishes under the exclusive
// lock, where re-checks compare generations or segment identity and no
// CRC runs. The lock is NEVER held while blocked in a FetchSet await, so
// a parked probe cannot wedge a writer. Updates to one file serialize on
// that file's update mutex, which the store owns (callers need no lock of
// their own), and an update's install re-checks the generation, placement
// and server epoch it captured for every block it writes, retrying on any
// change — the pattern repair() uses below. The pinned repair-plan map has
// its own mutex, and the read counters are atomics snapshotted by value.
// fail_server/revive_server may race in-flight operations: server liveness
// is a monotonic atomic EPOCH (even = alive, odd = dead; every transition
// bumps it — see sim::Server) and the block-state sweep runs under the
// exclusive lock, so a concurrent read either sees the block before the
// kill (and serves it) or after (and degrades) — chaos actors and mid-job
// kills rely on this. repair() captures the target's {server, epoch} when
// an attempt starts and re-checks both under the exclusive lock before
// installing, so a repair that began before a kill (or a full kill/revive
// cycle, which a raw alive flag cannot distinguish from "never died") can
// never resurrect a block the revive declared lost, and a rebuilt block
// can never land on a server the slot was reassigned away from.
// set_fault_injector/set_block_cache remain attach-at-setup only.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "codes/erasure_code.h"
#include "fault/fault.h"
#include "sim/cluster.h"
#include "store/segments.h"

namespace galloper::client {
class BlockCache;
}  // namespace galloper::client

namespace galloper::io {
class AsyncIo;
}  // namespace galloper::io

namespace galloper::store {

using FileId = size_t;

// One version of a stored block, published whole and never modified. A
// lost block is a version with no segments that keeps the checksums (its
// repair rebuilds against them) and carries the bumped generation.
struct BlockVersion {
  uint64_t generation = 0;
  std::vector<Segment> segs;   // empty: lost
  std::vector<uint32_t> crcs;  // per segment, taken when it was written
};
using VersionRef = std::shared_ptr<const BlockVersion>;

class FileStore {
 public:
  // `code` must outlive the store.
  FileStore(sim::Cluster& cluster, const codes::ErasureCode& code);
  // Drops this store's entries from the attached cache — the uid is never
  // reused, so they could never be SERVED again, but dead residents would
  // still squeeze live stores out of the shared capacity.
  ~FileStore();

  const codes::ErasureCode& code() const { return code_; }
  sim::Cluster& cluster() { return cluster_; }

  // ---- Block→server placement -------------------------------------------
  //
  // Identity by default. set_placement installs a full mapping at setup
  // time (one distinct alive server per block slot); reassign_block is the
  // drain/decommission cutover and IS safe under load: it flips one slot's
  // home under the exclusive lock, and because the block's bytes stay
  // resident across the flip, concurrent reads never degrade — they see
  // the slot on the old (alive) server before the flip and on the new
  // (alive) server after.
  size_t server_of(size_t block) const;
  std::vector<size_t> placement() const;
  void set_placement(std::vector<size_t> placement);
  void reassign_block(size_t block, size_t server);

  // Attaches a fault injector (not owned; null detaches). Injected faults:
  // silent bit flips / torn writes on every block store (write, update,
  // repair store-back), transient helper-read failures (retried, then
  // rerouted), latency stalls on block fetches (absorbed by hedged
  // re-reads — see read_range/repair), the "store.fetch" crash point fired
  // inside the async fetches, and the "store.repair" crash point fired just
  // before a rebuilt block is installed.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return injector_; }

  // ---- Verified client-side block cache ----------------------------------
  //
  // The store participates in client::BlockCache (default: the process-wide
  // instance) through three invariants:
  //  - every version carries a GENERATION, bumped by every mutation or
  //    quarantine (update install, repair install, CRC quarantine,
  //    fail_server) — and each bump also drops the cache entry;
  //  - entries are verified SEGMENTS, the store's own: the read core fills
  //    the cache with a snapshot version's segments that fetch_segments
  //    CRC-checked, keyed by that version's generation — bytes and
  //    generation taken from one version — aliasing store memory;
  //  - the read core's open step stages every source segment of its plan
  //    that the cache holds at its snapshot's generations, and a read
  //    whose sources are all staged there is served with no fetch, no fault
  //    draw and no I/O pool.
  // corrupt_block() deliberately does NOT bump: silent corruption doesn't
  // change the block's logical content. It publishes a version with a
  // flipped copy of one segment, so a cached entry keeps the verified
  // bytes, which are exactly what a verified read would reconstruct.
  //
  // set_block_cache is like set_fault_injector: not synchronized against
  // in-flight operations (attach at setup; null detaches). The attached
  // cache must OUTLIVE the store — ~FileStore drops its entries from it.
  void set_block_cache(client::BlockCache* cache) { cache_ = cache; }
  client::BlockCache* block_cache() const { return cache_; }
  // Process-unique id this store keys its cache entries with.
  uint64_t cache_uid() const { return cache_uid_; }

  // Current generation of one block.
  uint64_t block_generation(FileId id, size_t block) const;

  // Encodes and stores a file. Size must be a positive multiple of the
  // code's chunk count. The encode runs unlocked; then, serialized with
  // other writers, each block's true segment checksums are taken before
  // the injector's one write-fault draw for it, so an injected fault is a
  // silent corruption the verified paths catch. client::StripedWriter
  // lands here too.
  FileId write(ConstByteSpan file);

  size_t num_files() const;
  size_t block_bytes(FileId id) const;
  // Size of the original (decoded) file.
  size_t file_bytes(FileId id) const;

  // The block contents as stored (nullopt if its server is dead or the
  // block was lost), for tests and probes; no data path uses it. Block b of
  // every file lives on server_of(b). A block whose segments an update or
  // corrupt_block split across several buffers is first compacted into one
  // (same bytes, checksums and generation), so repeated calls
  // return the same span. The span is only stable while no concurrent
  // operation quarantines or rewrites the block — concurrent callers use
  // the verified reads, which hold the segments they read.
  std::optional<ConstByteSpan> block(FileId id, size_t block) const;

  // Whether the server holding `block` is alive and still has the bytes.
  bool block_available(FileId id, size_t block) const;

  // Kills a server: all blocks stored on it are lost.
  void fail_server(size_t server);

  // Brings a server back EMPTY (its blocks stay lost until repaired).
  void revive_server(size_t server);

  // True if every file is still decodable from available blocks.
  bool all_recoverable() const;

  // The reference decode, an oracle and not a data path: the whole file
  // decoded from the available blocks' stored bytes with no checksum
  // check, never quarantining, healing or filling the cache. It holds the
  // blocks' versions, so it decodes unlocked. Correctness
  // gates compare it to a mirror because a verifying read would heal what
  // it finds, so a rebuild that installed wrong bytes would pass them.
  // nullopt if the available blocks cannot decode the file.
  std::optional<Buffer> read(FileId id) const;

  // Data-local map-task read: bytes [block_offset, block_offset + length)
  // of block `b`, which must lie inside one original-data run of the block
  // (a core::InputFormat split or a piece of one; anything else, parity
  // included, throws CheckError). The range is mapped to its file offset
  // with the code's layout and read by read_range: the read core's plan
  // copies an available block's chunks verbatim, so a healthy split reads
  // and verifies only its own segments of `b` and decodes nothing, and a
  // lost, unreadable or corrupt `b` replans in the same call into a
  // degraded decode of the same bytes (quarantining and self-healing a
  // corrupt block). Faults, hedging and the cache follow every read's
  // rules. nullopt only if the available blocks cannot rebuild the range.
  std::optional<Buffer> read_original_split(FileId id, size_t b,
                                            size_t block_offset,
                                            size_t length);

  // ---- Self-healing degraded reads --------------------------------------

  struct ReadStats {
    size_t verified_reads = 0;  // ranged and split reads that fetched
    size_t verified_bytes = 0;  // bytes CRC-checked by read paths
    size_t crc_failures = 0;    // blocks that failed their CRC on read
    size_t degraded_reads = 0;  // reads that decoded around a corrupt block
    size_t transient_faults = 0;  // injected read faults retried in place
    size_t auto_repairs = 0;    // corrupt blocks rebuilt by a read
    size_t replanned_reads = 0;  // ranged reads that dropped a block mid-read
    size_t update_verified_bytes = 0;  // bytes CRC-checked by update_range
    size_t repair_verified_bytes = 0;  // helper/spare bytes repair checked
  };
  // Snapshot by value — safe to call while reads are in flight.
  ReadStats read_stats() const;

  // Verified read of bytes [offset, offset + length) of the original file:
  // the read core below with the whole range as one batch. nullopt only if
  // the healthy blocks cannot reconstruct the range.
  std::optional<Buffer> read_range(FileId id, size_t offset, size_t length);

  // ---- The read core ------------------------------------------------------
  //
  // Every verified read — read_range (and with it read_original_split),
  // the pipelined client::StripedReader and mr::StoreRunner's map tasks —
  // runs this one plan→fetch→verify→decode loop, in two steps:
  //  - open_read snapshots the available set and every block's version
  //    (begin_verified_read), plans decode_fast over that set once, and
  //    stages the plan's source segments the block cache holds at the
  //    snapshot generations. It draws no fault and touches no I/O pool;
  //  - finish_read splits the range into batches of `batch_chunks` stripe
  //    chunks and keeps up to `depth` of them in flight on the async I/O
  //    pool, decoding the oldest in order. Per batch, ONE fetch per plan
  //    slot verifies the segments not yet staged (fetch_segments); a fetch
  //    still pending at the hedge deadline is re-issued stall-free on a
  //    second path, first result wins.
  // A gone (concurrent quarantine or kill), unreadable (injected read
  // faults that kept failing) or corrupt fetch drops its block from the
  // read — a corrupt one is also quarantined — and the read REPLANS in the
  // same call over the snapshot's remaining blocks, keeping every segment
  // it already verified (a DEGRADED read: same bytes, more arithmetic).
  // Either way the read returns the file as it was at its open. Blocks the
  // read quarantined are then rebuilt in place via the pinned repair plans,
  // so the next read is clean again.
  //
  // Fault draws: a read draws one fetch schedule (draw_fetch) per fetch it
  // issues, on the calling thread in batch and slot order, until its first
  // replan; after it the read is PINNED — no draws, stall-free fetches —
  // so the seeded fault sequence never depends on whether a race hit. Only
  // the self-heal repair draws its own schedule, as every repair does.
  // Hedges and cache hits draw nothing.

  struct ReadSession {
    std::vector<size_t> available;  // sorted block ids the session may read
    std::vector<VersionRef> versions;  // every block's, at the snapshot
    size_t block_bytes = 0;
  };
  // The open step's snapshot, taken under one shared-lock hold.
  ReadSession begin_verified_read(FileId id);

  // One ranged read between its two steps.
  class RangeRead {
   public:
    // False when finish_read has nothing to fetch: an empty range, one the
    // available blocks cannot reconstruct, or one the cache fully staged.
    bool needs_fetch() const { return needs_fetch_; }
    // Sorted block ids the open step found available.
    const std::vector<size_t>& available() const {
      return session_.available;
    }
    // Set by finish_read: batches fetched and decoded, and whether a gone,
    // unreadable or corrupt fetch made the read replan.
    size_t batches() const { return batches_; }
    bool replanned() const { return replanned_; }

   private:
    friend class FileStore;
    FileId id_ = 0;
    size_t offset_ = 0, length_ = 0;
    ReadSession session_;
    std::shared_ptr<const codes::CodecPlan> plan_;  // null: unreconstructable
    StagedSegments staged_{0, 0};
    bool needs_fetch_ = false;
    size_t batches_ = 0;
    bool replanned_ = false;
  };
  RangeRead open_read(FileId id, size_t offset, size_t length);
  // Requires batch_chunks >= 1 and depth >= 1. Runs once; frees the snapshot.
  std::optional<Buffer> finish_read(RangeRead& read, size_t batch_chunks,
                                    size_t depth);

  // Overwrites the chunk-aligned range [offset, offset + data.size()) of
  // the original file in place, patching parity via deltas. Only the
  // stripes the deltas write are touched (CodecEngine::update_stripes):
  // per written block, the update copies and verifies the segments
  // covering them (its WINDOW, counted in ReadStats::update_verified_bytes;
  // the copy is the copy-on-write), patches the copy, and installs the
  // block's current version with the copy's segments and fresh checksums
  // in their place. All blocks must be available (an in-place update on a
  // degraded stripe is refused with CheckError — repair first). A corrupt
  // segment inside a window is quarantined with its block and the update
  // throws CheckError, because patching it would launder the corruption
  // into a "valid" checksum; corruption outside every window is left for
  // scrub(), as it is for reads. Concurrent updates to one file serialize
  // inside the store. If a written block changed generation, placement or
  // server epoch between verify and install (a kill, quarantine or
  // reassignment raced the update), the update re-runs from the verify —
  // a block now gone surfaces as the degraded-stripe CheckError — and
  // throws fault::TransientError if that keeps happening. Returns the
  // blocks written. offset and size must be multiples of the chunk size
  // (block_bytes / stripes_per_block).
  std::vector<size_t> update_range(FileId id, size_t offset,
                                   ConstByteSpan data);

  // Restores one lost block from the available blocks (preferred helpers
  // when alive, any sufficient subset otherwise). Helper blocks are
  // gathered concurrently through the async I/O pool; a helper still slow
  // at the hedge deadline is re-read on a second path and CRC-clean spare
  // helpers are drafted as an alternate decodable route (the stalled
  // loser is cancelled). Returns the blocks read (the disk I/O set);
  // nullopt if unrecoverable — structurally, OR because the target server
  // died mid-repair (the block stays lost; retry after a revive). The
  // install re-checks the target's {server, liveness epoch} captured when
  // the attempt started, so a kill (or kill/revive cycle, or slot
  // reassignment) that lands between rebuild and install aborts the stale
  // install instead of resurrecting bytes the revive declared lost. The
  // helpers' versions are taken under the shared lock and CRC-checked
  // unlocked; the rebuild decodes the pinned plan straight from them
  // (decode_staged) into a new buffer that owns the block's segments.
  // `io` routes the helper gather through a specific async pool (a data
  // node's own — cluster::RepairQueue passes the target node's pool so a
  // repair storm doesn't occupy the global client pool); null = the
  // process-wide pool.
  std::optional<std::vector<size_t>> repair(FileId id, size_t block,
                                            io::AsyncIo* io = nullptr);

  // Distinct (failed block, helper set) repair patterns this store has
  // compiled so far. Every file of the store shares one code, so a storm
  // that loses a server repairs the same pattern once per file — plan
  // count stays flat while repair count grows.
  size_t repair_plan_count() const {
    std::lock_guard<std::mutex> lock(plans_mu_);
    return repair_plans_.size();
  }

  // Blocks of `id` that are currently lost.
  std::vector<size_t> lost_blocks(FileId id) const;

  // ---- Scrubbing (silent-corruption defense) ----------------------------

  // Fault injection: flips one byte inside a stored block. The segment
  // holding it is replaced by a flipped copy; holders of the old segment
  // keep the old bytes.
  void corrupt_block(FileId id, size_t block, size_t offset);

  struct CorruptBlock {
    FileId file;
    size_t block;
  };
  // Recomputes every stored segment's CRC-32C against the checksum
  // recorded at write time. Blocks with a mismatching segment are reported
  // and (when `quarantine`) dropped, so a subsequent RecoveryManager pass
  // rebuilds them. The CRC pass takes every block's version under the
  // shared lock and checks it on the compute pool; each hit is then
  // reported only if the block still holds the failing segment (checked
  // under the exclusive lock — a block a concurrent reader healed in the
  // window is left alone), so the serial report is unchanged and the
  // concurrent one never drops a good block.
  std::vector<CorruptBlock> scrub(bool quarantine = true);

  struct ScrubReport {
    std::vector<CorruptBlock> corrupt;  // every CRC mismatch found
    size_t repaired = 0;                // rebuilt bit-exact via plan cache
    size_t unrecoverable = 0;           // quarantined but not rebuilt NOW
  };
  // scrub() with self-healing: quarantines every corrupt block, then
  // rebuilds them in place through the pinned repair plans (single-threaded
  // after the parallel CRC pass — rebuilds read peer blocks, so they must
  // not overlap the scan). Rebuilding is multi-pass: a block unrepairable
  // while its peers are also quarantined is retried after those peers heal.
  // `unrecoverable` counts blocks still down when the passes settle — NOT
  // necessarily lost forever (a dead server holding helpers may be revived
  // later; repair() or another scrub then finishes the job).
  ScrubReport scrub_and_repair();

 private:
  // _locked helpers assume the caller holds mu_ (shared suffices).
  bool block_available_locked(FileId id, size_t b) const;
  std::vector<size_t> available_blocks_locked(FileId id) const;
  // The attached block cache when it is enabled, else null.
  client::BlockCache* cache_enabled() const;
  // Looks up / compiles-and-pins the repair plan for (block, sorted
  // helpers) under plans_mu_.
  std::shared_ptr<const codes::CodecPlan> pinned_repair_plan(
      size_t block_id, const std::vector<size_t>& sorted_helpers,
      const std::vector<size_t>& helpers);
  // Publishes `next` as block (id, b)'s version one generation on, drops
  // the block's cache entries and returns the version it replaced. Caller
  // holds mu_ EXCLUSIVE (the bump must be ordered with the mutation it
  // describes).
  VersionRef bump_generation_locked(FileId id, size_t b, BlockVersion next);
  // Loses resident block (id, b): publishes a segment-less version and
  // moves the old one to *dropped, which the caller releases after the
  // lock (release_versions in file_store.cc). Caller holds mu_ EXCLUSIVE.
  void drop_locked(FileId id, size_t b, std::vector<VersionRef>* dropped);
  // Whether block (id, b) still holds `seg` as its segment g (the caller
  // holds `seg`, so its address cannot have been reused).
  bool holds_locked(FileId id, size_t b, size_t g, const Segment& seg) const;
  // If so, quarantines the block, counts a CRC failure and returns true (a
  // concurrent reader may have healed it since `seg` failed its CRC).
  bool quarantine_if_corrupt(FileId id, size_t b, size_t g,
                             const Segment& seg);
  // Rebuilds a block a read quarantined (nothing if its server is dead).
  void self_heal(FileId id, size_t b);

  // ---- The verified fetch primitive ---------------------------------------

  enum class FetchStatus { kOk, kGone, kCorrupt };
  struct SegmentFetch {
    FetchStatus status = FetchStatus::kGone;
    size_t bad_segment = 0;  // kCorrupt: the first mismatching segment
  };
  // Fetches segments `segs` (sorted ids) of block b's snapshot version
  // `v`: kGone when the block is lost or its server is dead NOW (the one
  // shared-lock hold, which copies nothing), else, unlocked, CRC-checks
  // v's segments — kOk, and the caller stages exactly them, or kCorrupt
  // and the caller quarantines. Counts the checked bytes in
  // ReadStats::verified_bytes. Every read path fetches through this.
  SegmentFetch fetch_segments(FileId id, size_t b, const BlockVersion& v,
                              const std::vector<size_t>& segs) const;
  // The fault schedule of ONE block fetch, drawn on the calling thread:
  // the injected stall (seconds, 0 when none), then the transient read
  // faults, retried in place up to three tries (each failure counted in
  // ReadStats::transient_faults). nullopt when every try failed — the
  // block is unreadable for this fetch. No injector: always 0.
  std::optional<double> draw_fetch();
  // finish_read's per-fetch landing and window batch (file_store.cc).
  struct FetchLanding;
  struct Batch;

  sim::Cluster& cluster_;
  const codes::ErasureCode& code_;
  fault::FaultInjector* injector_ = nullptr;
  const uint64_t cache_uid_;
  client::BlockCache* cache_;  // attached block cache (never owned)

  struct ReadCounters {
    std::atomic<size_t> verified_reads{0};
    std::atomic<size_t> verified_bytes{0};
    std::atomic<size_t> crc_failures{0};
    std::atomic<size_t> degraded_reads{0};
    std::atomic<size_t> transient_faults{0};
    std::atomic<size_t> auto_repairs{0};
    std::atomic<size_t> replanned_reads{0};
    std::atomic<size_t> update_verified_bytes{0};
    std::atomic<size_t> repair_verified_bytes{0};
  };
  // counters_ and mu_ are written by every concurrent read, so each starts
  // its own cache line (64 bytes on every target we build for), and
  // placement_ starts the line after mu_: those writes must not keep
  // invalidating the read-mostly fields around them.
  alignas(64) mutable ReadCounters counters_;

  // Pinned repair plans keyed by (failed block, sorted helper set). Held by
  // shared_ptr for the store's lifetime, so storm waves never replan even
  // with GALLOPER_PLAN_CACHE=off or after global-cache eviction.
  mutable std::mutex plans_mu_;
  std::map<std::pair<size_t, std::vector<size_t>>,
           std::shared_ptr<const codes::CodecPlan>>
      repair_plans_;

  // Serializes write() callers, so the file id chosen before the
  // (unlocked) injector write-fault callbacks is the id the append gets.
  // Injector callbacks may call back into the store (the soak harness's
  // write gate does), so they must NEVER run under mu_.
  std::mutex write_mu_;
  // update_mu_[id]: serializes update_range calls on file id. Appended with
  // files_ (under mu_); an update looks its mutex up under mu_ shared and
  // then locks it with mu_ released, never the other way round.
  std::vector<std::unique_ptr<std::mutex>> update_mu_;

  // Guards files_/file_block_bytes_/placement_ (see the thread-safety note
  // in the class comment).
  alignas(64) mutable std::shared_mutex mu_;
  // placement_[block slot] → server id (identity unless set_placement /
  // reassign_block changed it). Liveness of slot b is its server's.
  alignas(64) std::vector<size_t> placement_;
  // files_[id][block] — the block's current version, never null.
  // Mutations publish a new version and never write into one. Mutable for
  // block(), whose compaction keeps the bytes.
  mutable std::vector<std::vector<VersionRef>> files_;
  std::vector<size_t> file_block_bytes_;
};

}  // namespace galloper::store
