// Pipelined striped client. StripedReader streams a read as a sliding
// window of batch fetches in flight on the async I/O pool, decoded in order
// on the caller, so the next batches' segment fetches (and their injected
// stalls) overlap each other and the current batch's decode instead of
// serializing. StripedWriter is FileStore::write behind the same
// admission gate and counters: a write is one compiled encode plan that
// already fans out on the rt pool.
//
// The read itself is FileStore's read core (open_read / finish_read: one
// snapshot and one decode plan per call, verified segment fetches, an
// in-call replan around a gone, unreadable or corrupt block, self-heal) —
// the loop FileStore::read_range runs with the whole range as one batch,
// so pipelined bytes are bit-identical to direct ones by construction.
// StripedReader adds only what the store cannot know:
//  - the window shape: ReaderOptions' batch_chunks per batch and
//    queue_depth batches in flight, so slow helpers stall the window, not
//    the stream;
//  - AdmissionControl, which caps how many clients occupy the shared
//    AsyncIo pool at once, so N clients queue at the door instead of
//    convoying all their fetches into one saturated pool. The ticket is
//    taken after the core's open step, and only when it left something to
//    fetch: a range the block cache fully staged skips the gate;
//  - the process-wide ClientStats and the call latency histogram.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

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
  uint64_t writes = 0;         // StripedWriter::write calls
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t batches = 0;        // fetch→decode batches processed
  uint64_t fallbacks = 0;      // reads that replanned around a lost block
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
  store::FileStore& store_;
  ReaderOptions opt_;
};

struct WriterOptions {
  // null → AdmissionControl::global().
  AdmissionControl* admission = nullptr;
};

class StripedWriter {
 public:
  explicit StripedWriter(store::FileStore& store, WriterOptions opt = {});

  // FileStore::write under an admission ticket, counted in ClientStats and
  // the client latency histogram — so its stored blocks, checksums and
  // injector write-fault schedule are FileStore::write's.
  store::FileId write(ConstByteSpan file);

 private:
  store::FileStore& store_;
  WriterOptions opt_;
};

}  // namespace galloper::client
