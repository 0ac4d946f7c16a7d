#include "client/striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "codes/engine.h"
#include "rt/queue.h"
#include "util/check.h"

namespace galloper::client {

namespace {

struct ClientCounters {
  std::atomic<uint64_t> reads{0}, writes{0};
  std::atomic<uint64_t> bytes_read{0}, bytes_written{0};
  std::atomic<uint64_t> batches{0}, fallbacks{0};
  std::atomic<uint64_t> cache_reads{0};
};

ClientCounters& counters() {
  static ClientCounters c;
  return c;
}

}  // namespace

// ---- AdmissionControl ----------------------------------------------------

AdmissionControl::AdmissionControl(size_t limit) : limit_(limit) {
  GALLOPER_CHECK(limit_ > 0);
}

AdmissionControl& AdmissionControl::global() {
  static AdmissionControl* gate = [] {
    size_t limit = 8;
    if (const char* env = std::getenv("GALLOPER_CLIENT_ADMIT")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) limit = std::min<size_t>(static_cast<size_t>(n), 1024);
    }
    return new AdmissionControl(limit);  // leaked: outlives static dtors
  }();
  return *gate;
}

AdmissionControl::Ticket::~Ticket() {
  if (ac_) ac_->release();
}

AdmissionControl::Ticket AdmissionControl::admit() {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_ >= limit_) {
    ++waited_;
    cv_.wait(lock, [&] { return in_flight_ < limit_; });
  }
  ++in_flight_;
  ++admitted_;
  peak_ = std::max(peak_, in_flight_);
  return Ticket(this);
}

void AdmissionControl::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  cv_.notify_one();
}

AdmissionControl::Stats AdmissionControl::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.admitted = admitted_;
  s.waited = waited_;
  s.in_flight = in_flight_;
  s.peak = peak_;
  s.limit = limit_;
  return s;
}

// ---- process-wide client stats -------------------------------------------

ClientStats client_stats() {
  ClientStats s;
  const ClientCounters& c = counters();
  s.reads = c.reads.load(std::memory_order_relaxed);
  s.writes = c.writes.load(std::memory_order_relaxed);
  s.bytes_read = c.bytes_read.load(std::memory_order_relaxed);
  s.bytes_written = c.bytes_written.load(std::memory_order_relaxed);
  s.batches = c.batches.load(std::memory_order_relaxed);
  s.fallbacks = c.fallbacks.load(std::memory_order_relaxed);
  s.cache_reads = c.cache_reads.load(std::memory_order_relaxed);
  return s;
}

util::LatencyHistogram& client_latency_histogram() {
  static util::LatencyHistogram* hist = new util::LatencyHistogram();
  return *hist;
}

// ---- StripedReader -------------------------------------------------------

StripedReader::StripedReader(store::FileStore& store, ReaderOptions opt)
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.batch_chunks > 0);
}

std::optional<Buffer> StripedReader::read_range(store::FileId id,
                                                size_t offset, size_t length) {
  const auto t0 = std::chrono::steady_clock::now();
  store::FileStore::RangeRead read = store_.open_read(id, offset, length);
  // The admission ticket is taken only for a read with something to fetch:
  // a range the cache fully staged does no I/O, so making it queue for a
  // pool ticket would throttle exactly the traffic the cache exists to
  // absorb.
  std::optional<AdmissionControl::Ticket> ticket;
  if (read.needs_fetch())
    ticket.emplace((opt_.admission ? *opt_.admission
                                   : AdmissionControl::global())
                       .admit());
  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();
  ClientCounters& c = counters();
  c.reads.fetch_add(1, std::memory_order_relaxed);
  c.bytes_read.fetch_add(length, std::memory_order_relaxed);
  std::optional<Buffer> out =
      store_.finish_read(read, opt_.batch_chunks, depth);
  c.batches.fetch_add(read.batches(), std::memory_order_relaxed);
  if (read.replanned()) c.fallbacks.fetch_add(1, std::memory_order_relaxed);
  if (!read.needs_fetch() && out && length > 0)
    c.cache_reads.fetch_add(1, std::memory_order_relaxed);
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return out;
}

// ---- StripedWriter -------------------------------------------------------

StripedWriter::StripedWriter(store::FileStore& store, WriterOptions opt)
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.slice_bytes > 0);
}

namespace {

// One writer slice: the intra-chunk byte range [lo, lo + len) of every
// chunk, gathered into a contiguous (num_chunks × len) sub-file.
struct SliceJob {
  size_t lo = 0, len = 0;
  Buffer sub;  // gathered sub-file (slice stage) — num_chunks · len bytes
};

struct EncodedSlice {
  size_t lo = 0, len = 0;
  std::vector<Buffer> blocks;  // stripes_per_block · len bytes each
};

}  // namespace

store::FileId StripedWriter::write(ConstByteSpan file) {
  const codes::CodecEngine& eng = store_.code().engine();
  const size_t n = eng.num_chunks();
  GALLOPER_CHECK_MSG(!file.empty() && file.size() % n == 0,
                     "file size must be a positive multiple of the "
                         << n << "-chunk stripe");
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().writes.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_written.fetch_add(file.size(), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();

  const size_t chunk = file.size() / n;
  const size_t spb = eng.stripes_per_block();
  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();

  // Full blocks assembled slice by slice. Buffer(n) bytes are
  // indeterminate until every slice lands — each byte is written exactly
  // once below.
  std::vector<Buffer> full;
  full.reserve(eng.num_blocks());
  for (size_t b = 0; b < eng.num_blocks(); ++b)
    full.emplace_back(spb * chunk);

  rt::BoundedQueue<SliceJob> slice_q(depth);
  rt::BoundedQueue<EncodedSlice> enc_q(depth);
  const auto abort = [&](std::exception_ptr e) {
    slice_q.poison(e);
    enc_q.poison(e);
  };

  // Slice stage: gather the intra-chunk columns. Encode stage: encode each
  // sub-file — because the GF kernels are bytewise, block byte j of the
  // sub-file encode equals block bytes [p·chunk + lo, p·chunk + lo + len)
  // of the full encode, so assembling slices reproduces the direct write's
  // blocks exactly.
  rt::StageThread slice_stage(
      [&] {
        for (size_t lo = 0; lo < chunk; lo += opt_.slice_bytes) {
          SliceJob job;
          job.lo = lo;
          job.len = std::min(opt_.slice_bytes, chunk - lo);
          job.sub = Buffer(n * job.len);
          for (size_t i = 0; i < n; ++i)
            std::memcpy(job.sub.data() + i * job.len,
                        file.data() + i * chunk + lo, job.len);
          if (!slice_q.push(std::move(job))) return;
        }
        slice_q.close();
      },
      abort);
  rt::StageThread encode_stage(
      [&] {
        while (auto job = slice_q.pop()) {
          EncodedSlice enc;
          enc.lo = job->lo;
          enc.len = job->len;
          enc.blocks = eng.encode(ConstByteSpan(job->sub));
          if (!enc_q.push(std::move(enc))) return;
        }
        enc_q.close();
      },
      abort);

  // Assemble on the caller thread, overlapping the next slice's encode.
  try {
    while (auto enc = enc_q.pop()) {
      for (size_t b = 0; b < full.size(); ++b)
        for (size_t p = 0; p < spb; ++p)
          std::memcpy(full[b].data() + p * chunk + enc->lo,
                      enc->blocks[b].data() + p * enc->len, enc->len);
    }
  } catch (...) {
    abort(nullptr);
    throw;
  }
  slice_stage.join();
  encode_stage.join();
  slice_q.rethrow_if_poisoned();
  enc_q.rethrow_if_poisoned();
  slice_stage.rethrow();
  encode_stage.rethrow();

  const store::FileId fid = store_.write_encoded(std::move(full));
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return fid;
}

}  // namespace galloper::client
