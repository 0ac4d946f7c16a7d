// Pipelined striped client. StripedReader streams a read as a sliding
// window of batch fetches in flight on the async I/O pool, decoded in order
// on the caller, so the next batches' segment fetches (and their injected
// stalls) overlap each other and the current batch's decode instead of
// serializing. StripedWriter streams slice→encode→assemble stages over
// rt::BoundedQueue.
//
// Why a client layer wins over per-call FileStore reads:
//  - ONE read session per stream (FileStore::begin_verified_read: the
//    transient-fault pre-draw over the available blocks) keys ONE decode
//    plan for the whole stream; each batch then fetches and verifies only
//    the segments that plan's covered rows read (CodecPlan::row_sources),
//    via FileStore::fetch_segments;
//  - batches ride a sliding window of hedged FetchSets (queue_depth deep),
//    so slow helpers stall the window, not the stream, and a segment is
//    fetched and verified once per stream however many batches read it;
//  - the decode executes the SESSION plan's rows directly over the staged
//    verified segments (store::decode_staged — the decode
//    FileStore::read_range runs), so pipelined bytes are bit-identical to
//    direct ones by construction;
//  - AdmissionControl caps how many clients occupy the shared AsyncIo pool
//    at once, so N clients queue at the door instead of convoying all
//    their fetches into one saturated pool.
//
// Staleness and corruption: a session's available set is a snapshot. If a
// block the plan reads is quarantined or lost mid-stream, or a fetched
// segment fails its checksum, the reader falls back to plain
// FileStore::read_range_nofault for that call (counted in
// ClientStats::fallbacks), which quarantines, replans and heals —
// correctness never depends on the snapshot.
//
// Caching: when the store has a client::BlockCache attached (the default
// process-wide one), read_range tries FileStore::read_range_cached FIRST —
// a range whose plan sources are fully cached is served with no session,
// no admission ticket, and no I/O pool — and each pipeline batch consults
// the cache per segment, fetching only the missing ones (verified against
// their segment checksums before insertion, so future hits are as
// trustworthy as verified reads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "io/async.h"
#include "store/file_store.h"
#include "util/bytes.h"
#include "util/stats.h"

namespace galloper::client {

// Counting-semaphore admission gate shared by all clients of one process
// (or a private instance per test). admit() blocks while `limit` tickets
// are out; the RAII Ticket releases on destruction.
class AdmissionControl {
 public:
  explicit AdmissionControl(size_t limit);

  AdmissionControl(const AdmissionControl&) = delete;
  AdmissionControl& operator=(const AdmissionControl&) = delete;

  // Process-wide gate: GALLOPER_CLIENT_ADMIT when set to a positive
  // integer (clamped to [1, 1024]), else 8 — enough concurrent streams to
  // keep a small I/O pool busy without convoying.
  static AdmissionControl& global();

  class Ticket {
   public:
    Ticket(Ticket&& o) noexcept : ac_(o.ac_) { o.ac_ = nullptr; }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    Ticket& operator=(Ticket&&) = delete;
    ~Ticket();

   private:
    friend class AdmissionControl;
    explicit Ticket(AdmissionControl* ac) : ac_(ac) {}
    AdmissionControl* ac_;
  };

  // Blocks until a slot frees up.
  Ticket admit();

  struct Stats {
    uint64_t admitted = 0;  // tickets handed out
    uint64_t waited = 0;    // admissions that had to block
    size_t in_flight = 0;
    size_t peak = 0;
    size_t limit = 0;
  };
  Stats stats() const;

 private:
  void release();

  const size_t limit_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  size_t peak_ = 0;
  uint64_t admitted_ = 0;
  uint64_t waited_ = 0;
};

// Process-wide client counters (all StripedReader/StripedWriter instances
// share them, like the AsyncIo ledger) — snapshotted for --stats and the
// load generator.
struct ClientStats {
  uint64_t reads = 0;          // pipelined read_range calls
  uint64_t writes = 0;         // pipelined write calls
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t batches = 0;        // fetch→decode batches processed
  uint64_t fallbacks = 0;      // stale sessions retried via direct read
  uint64_t cache_reads = 0;    // reads served entirely from the block cache
};
ClientStats client_stats();

// Shared log2-ns histogram of whole-call client latencies (read_range /
// write), feeding the load generator's p50/p99/p999.
util::LatencyHistogram& client_latency_histogram();

struct ReaderOptions {
  // Stripe chunks per pipeline batch (per-batch fetch/decode granularity).
  size_t batch_chunks = 4;
  // Fetch window depth (in-flight batch FetchSets). 0 → rt::queue_depth()
  // (GALLOPER_QUEUE_DEPTH).
  size_t queue_depth = 0;
  // null → AdmissionControl::global().
  AdmissionControl* admission = nullptr;
};

class StripedReader {
 public:
  explicit StripedReader(store::FileStore& store, ReaderOptions opt = {});

  // Pipelined equivalent of FileStore::read_range — same bytes, same
  // nullopt-when-unreconstructable semantics. Thread-safe (stateless
  // between calls beyond the shared counters).
  std::optional<Buffer> read_range(store::FileId id, size_t offset,
                                   size_t length);

 private:
  std::optional<Buffer> read_pipelined(store::FileId id, size_t offset,
                                       size_t length);

  store::FileStore& store_;
  ReaderOptions opt_;
};

struct WriterOptions {
  // Intra-chunk bytes encoded per pipeline slice. Each slice encodes a
  // (num_chunks × slice) sub-file whose blocks are byte-columns of the
  // full encode (the GF kernels are bytewise), so slicing never changes
  // the stored bytes.
  size_t slice_bytes = size_t{64} << 10;
  // 0 → rt::queue_depth().
  size_t queue_depth = 0;
  // null → AdmissionControl::global().
  AdmissionControl* admission = nullptr;
};

class StripedWriter {
 public:
  explicit StripedWriter(store::FileStore& store, WriterOptions opt = {});

  // Pipelined equivalent of FileStore::write — bit-identical stored blocks
  // and checksums, identical injector write-fault schedule.
  store::FileId write(ConstByteSpan file);

 private:
  store::FileStore& store_;
  WriterOptions opt_;
};

}  // namespace galloper::client
