// Pure helpers of the benchmark harness, kept apart from the workloads so
// tests.cc can check them without a store: the exact-percentile rule, the
// Zipf picker, metric-name syntax, the seeded per-client op generator and
// the JSON result line.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

// ---- Exact percentiles -------------------------------------------------

// 1-based nearest rank of percentile q among n > 0 samples (the epsilon
// keeps q = (n - 10) / n from rounding up a rank).
inline size_t nearest_rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

// Nearest-rank percentile of raw samples: the smallest sample with at
// least q·n samples at or below it. No bucketing, no interpolation.
inline double exact_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), q) - 1];
}

// Samples strictly above the nearest-rank q-percentile of n samples.
inline size_t samples_beyond(size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

// The percentile actually reported for a requested tail q: q itself when at
// least 10 samples lie beyond it, else the highest percentile that still
// has 10 beyond it (never below the median).
inline double supported_percentile(size_t n, double q) {
  constexpr size_t kBeyond = 10;
  if (samples_beyond(n, q) >= kBeyond) return q;
  if (n <= 2 * kBeyond) return 0.5;
  return std::max(0.5, static_cast<double>(n - kBeyond) /
                           static_cast<double>(n));
}

// ---- Zipf popularity -------------------------------------------------

// Zipf(theta): item i has weight (1/(i+1))^theta; theta = 0 is uniform.
// Inverts a precomputed CDF with one uniform draw.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::pow(1.0 / static_cast<double>(i + 1), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t pick(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }
  size_t pick(galloper::Rng& rng) const { return pick(rng.next_double()); }

 private:
  std::vector<double> cdf_;
};

// ---- Metric names ------------------------------------------------------

// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ---- Seeded op streams -------------------------------------------------

enum class OpKind : uint8_t { kRead, kUpdate };

struct Op {
  OpKind kind = OpKind::kRead;
  size_t file = 0;
  size_t offset = 0;
  size_t length = 0;
  uint64_t payload_seed = 0;  // update bytes are drawn from this
  bool operator==(const Op&) const = default;
};

// Traffic shape of one client stream. Reads pick a length uniformly in
// [read_min, read_max] (clamped to the file) at a uniform offset; updates
// overwrite one uniformly chosen chunk.
struct Traffic {
  size_t files = 1;
  size_t file_bytes = 0;
  size_t chunk_bytes = 0;
  double zipf_theta = 0;
  double update_fraction = 0;
  size_t read_min = 0;
  size_t read_max = 0;
};

// Per-client deterministic op stream: the same (seed, client) always yields
// the same sequence, however far a run gets into it.
class OpStream {
 public:
  OpStream(const Traffic& t, uint64_t seed, size_t client)
      : t_(t),
        zipf_(t.files, t.zipf_theta),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27u * (client + 1)) {}

  Op next() {
    Op op;
    op.file = zipf_.pick(rng_);
    if (t_.update_fraction > 0 && rng_.next_double() < t_.update_fraction) {
      op.kind = OpKind::kUpdate;
      const size_t chunks = t_.file_bytes / t_.chunk_bytes;
      op.offset = rng_.next_below(chunks) * t_.chunk_bytes;
      op.length = t_.chunk_bytes;
      op.payload_seed = rng_.next_u64();
      return op;
    }
    const size_t hi = std::min(t_.read_max, t_.file_bytes);
    const size_t lo = std::min(t_.read_min, hi);
    op.length = lo + rng_.next_below(hi - lo + 1);
    op.offset = rng_.next_below(t_.file_bytes - op.length + 1);
    return op;
  }

 private:
  Traffic t_;
  ZipfPicker zipf_;
  galloper::Rng rng_;
};

// Exact counts over a fixed prefix of every client's stream — the seeded
// determinism fingerprint a run prints and the self-test compares.
struct PlanCounts {
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t bytes_requested = 0;
  uint64_t digest = 0;  // order-sensitive hash of every op
  bool operator==(const PlanCounts&) const = default;
};

inline PlanCounts plan_counts(const Traffic& t, uint64_t seed, size_t clients,
                              size_t ops_per_client) {
  PlanCounts c;
  c.digest = 0xcbf29ce484222325ULL;
  const auto mix = [&](uint64_t v) {
    c.digest = (c.digest ^ v) * 0x100000001b3ULL;
  };
  for (size_t i = 0; i < clients; ++i) {
    OpStream s(t, seed, i);
    for (size_t n = 0; n < ops_per_client; ++n) {
      const Op op = s.next();
      (op.kind == OpKind::kRead ? c.reads : c.updates) += 1;
      c.bytes_requested += op.length;
      mix(static_cast<uint64_t>(op.kind));
      mix(op.file);
      mix(op.offset);
      mix(op.length);
      mix(op.payload_seed);
    }
  }
  return c;
}

// ---- Result line -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The single JSON object the benchmark prints last: correctness, op
// accounting and every metric with its unit, at full precision.
inline std::string result_json(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
