#include "client/striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

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
    : store_(store), opt_(opt) {}

store::FileId StripedWriter::write(ConstByteSpan file) {
  const AdmissionControl::Ticket ticket =
      (opt_.admission ? *opt_.admission : AdmissionControl::global()).admit();
  const auto t0 = std::chrono::steady_clock::now();
  const store::FileId fid = store_.write(file);
  counters().writes.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_written.fetch_add(file.size(), std::memory_order_relaxed);
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return fid;
}

}  // namespace galloper::client
