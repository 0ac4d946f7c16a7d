#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/flags.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace galloper {
namespace {

// ---------- check ----------

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(GALLOPER_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(GALLOPER_CHECK(1 + 1 == 3), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    GALLOPER_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

// ---------- rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(17);
  const auto sample = rng.sample_indices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(19);
  const auto sample = rng.sample_indices(10, 10);
  std::set<size_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, FillBytesChangesBuffer) {
  Rng rng(29);
  Buffer b(33, 0);
  rng.fill_bytes(b);
  size_t nonzero = 0;
  for (uint8_t x : b) nonzero += (x != 0);
  EXPECT_GT(nonzero, 20u);  // overwhelmingly likely
}

// ---------- bytes ----------

TEST(Bytes, SplitEvenShapes) {
  Rng rng(1);
  Buffer b = random_buffer(12, rng);
  const auto parts = split_even(b, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(concat(parts), b);
}

TEST(Bytes, SplitEvenRejectsIndivisible) {
  Buffer b(10);
  EXPECT_THROW(split_even(b, 3), CheckError);
}

TEST(Bytes, FingerprintDetectsChange) {
  Rng rng(2);
  Buffer b = random_buffer(100, rng);
  const uint64_t f0 = fingerprint(b);
  b[50] ^= 1;
  EXPECT_NE(fingerprint(b), f0);
}

TEST(Bytes, HexDumpTruncates) {
  Buffer b(100, 0xab);
  const std::string s = hex_dump(b, 4);
  EXPECT_NE(s.find("ab ab ab ab"), std::string::npos);
  EXPECT_NE(s.find("…"), std::string::npos);
}

// ---------- crc32c ----------

TEST(Crc32c, KnownVectors) {
  // Standard CRC-32C check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(ConstByteSpan(
                reinterpret_cast<const uint8_t*>(check.data()), check.size())),
            0xE3069283u);
  EXPECT_EQ(crc32c(ConstByteSpan{}), 0x00000000u);
  // 32 zero bytes (iSCSI test vector).
  Buffer zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // 32 0xff bytes.
  Buffer ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Rng rng(55);
  const Buffer data = random_buffer(1000, rng);
  const ConstByteSpan span(data);
  uint32_t state = kCrc32cInit;
  state = crc32c_extend(state, span.subspan(0, 137));
  state = crc32c_extend(state, span.subspan(137, 600));
  state = crc32c_extend(state, span.subspan(737));
  EXPECT_EQ(crc32c_finish(state), crc32c(data));
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Rng rng(56);
  Buffer data = random_buffer(256, rng);
  const uint32_t before = crc32c(data);
  data[100] ^= 0x10;
  EXPECT_NE(crc32c(data), before);
}

TEST(Crc32c, BackendIsNamed) {
  const std::string name = crc32c_backend();
  EXPECT_TRUE(name == "sse4.2" || name == "scalar") << name;
  // The override must take: a row that sets it and silently ran the
  // hardware path would test nothing.
  const char* force = std::getenv("GALLOPER_CRC32C");
  if (force && std::string(force) == "scalar") {
    EXPECT_EQ(name, "scalar");
  }
}

// An independent bit-at-a-time CRC-32C register update.
uint32_t bitwise_crc32c(uint32_t state, ConstByteSpan data) {
  for (uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      state = (state >> 1) ^ ((state & 1) ? 0x82f63b78u : 0);
  }
  return state;
}

// kCrc32cInit plus 16 seeded other starting states. The hardware kernel
// carries the caller's state in its first lane and starts the other two
// at 0, so only a non-default state exercises the lane fold.
std::vector<uint32_t> crc_start_states() {
  std::vector<uint32_t> states{kCrc32cInit};
  Rng rng(58);
  while (states.size() < 17) {
    const auto s = static_cast<uint32_t>(rng.next_u64());
    if (s != kCrc32cInit) states.push_back(s);
  }
  return states;
}

// Whatever backend is dispatched (SSE4.2 on modern x86) must agree with
// the bitwise reference on every length 0..1600 at starting offsets 0..7,
// from every start state: the 8-byte word loop, its byte tail, and the
// 256-byte three-lane path (768 bytes per round) with its fold.
TEST(Crc32c, HardwareAgreesWithBitwiseReference) {
  constexpr size_t kMaxLen = 1600;
  Rng rng(57);
  const Buffer data = random_buffer(kMaxLen + 7, rng);
  for (uint32_t start : crc_start_states()) {
    for (size_t off = 0; off < 8; ++off) {
      // The reference of each prefix extends the previous one by a byte.
      uint32_t ref = start;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const ConstByteSpan span = ConstByteSpan(data).subspan(off, len);
        if (len > 0) ref = bitwise_crc32c(ref, span.subspan(len - 1));
        ASSERT_EQ(crc32c_extend(start, span), ref)
            << "start=" << start << " off=" << off << " len=" << len;
      }
    }
  }
}

// Lengths on either side of the 8 KiB lanes' round (24 KiB) and of the
// 64 KiB store segment, plus a 4 MiB block with a tail.
TEST(Crc32c, LaneBoundaryLengthsAgreeWithBitwiseReference) {
  Rng rng(59);
  const Buffer data = random_buffer((4u << 20) + 3, rng);
  for (size_t len : {24575u, 24576u, 24577u, 49151u, 49152u, 49153u, 65535u,
                     65536u, 65541u, (4u << 20) + 3}) {
    const ConstByteSpan span = ConstByteSpan(data).first(len);
    for (uint32_t start : crc_start_states())
      ASSERT_EQ(crc32c_extend(start, span), bitwise_crc32c(start, span))
          << "start=" << start << " len=" << len;
  }
}

// Chaining across uneven pieces matches too, with pieces long enough to
// start, end and straddle lane rounds anywhere.
TEST(Crc32c, IncrementalSplitsAgreeWithBitwiseReference) {
  Rng rng(60);
  const Buffer data = random_buffer(200 << 10, rng);
  const ConstByteSpan all(data);
  for (int round = 0; round < 8; ++round) {
    uint32_t hw = kCrc32cInit;
    size_t pos = 0;
    while (pos < all.size()) {
      const size_t piece = std::min<size_t>(
          1 + rng.next_below(round % 2 ? 1000 : 40000), all.size() - pos);
      hw = crc32c_extend(hw, all.subspan(pos, piece));
      pos += piece;
    }
    EXPECT_EQ(hw, bitwise_crc32c(kCrc32cInit, all)) << "round " << round;
  }
}

// ---------- rational ----------

TEST(Rational, NormalizesSignsAndGcd) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0, 1));
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 8), Rational(3, 4));
  EXPECT_GE(Rational(1), Rational(1));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 0), CheckError);
  EXPECT_THROW(Rational(1, 2) / Rational(0), CheckError);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(4, 7).to_string(), "4/7");
  EXPECT_EQ(Rational(3).to_string(), "3");
  EXPECT_EQ(Rational(-1, 2).to_string(), "-1/2");
}

TEST(Rational, CommonDenominator) {
  EXPECT_EQ(common_denominator({Rational(6, 7), Rational(4, 7)}), 7);
  EXPECT_EQ(common_denominator({Rational(1, 2), Rational(1, 3)}), 6);
  EXPECT_EQ(common_denominator({Rational(2)}), 1);
}

TEST(Rational, SumExact) {
  // 4 · 6/7 + 4/7 = 4 — exactly (the paper's toy weights).
  const std::vector<Rational> ws{Rational(6, 7), Rational(6, 7),
                                 Rational(6, 7), Rational(6, 7),
                                 Rational(4, 7)};
  EXPECT_EQ(sum(ws), Rational(4));
}

TEST(Rational, GcdLcm) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(7, 13), 91);
}

TEST(Rational, CheckedArithmeticThrowsInsteadOfWrapping) {
  EXPECT_EQ(checked_add64(INT64_MAX - 1, 1), INT64_MAX);
  EXPECT_EQ(checked_mul64(INT64_MAX / 2, 2), INT64_MAX - 1);
  EXPECT_THROW(checked_add64(INT64_MAX, 1), CheckError);
  EXPECT_THROW(checked_add64(INT64_MIN, -1), CheckError);
  EXPECT_THROW(checked_mul64(INT64_MAX, 2), CheckError);
  EXPECT_THROW(checked_mul64(INT64_MIN, -1), CheckError);  // |INT64_MIN| > MAX
}

TEST(Rational, Lcm64OverflowIsLoud) {
  // Two large coprime values: lcm is their product, which wraps int64.
  const int64_t big_prime = 2305843009213693951;  // 2^61 - 1 (Mersenne)
  EXPECT_THROW(lcm64(big_prime, big_prime - 2), CheckError);
  // INT64_MIN has no positive absolute value; must refuse, not UB.
  EXPECT_THROW(lcm64(INT64_MIN, 3), CheckError);
  EXPECT_THROW(lcm64(3, INT64_MIN), CheckError);
  // Large but representable lcm still works.
  EXPECT_EQ(lcm64(1LL << 31, 3), (1LL << 31) * 3);
  EXPECT_EQ(lcm64(0, big_prime), 0);
}

TEST(Rational, AdversarialDenominatorsOverflowLoudly) {
  // Adding 1/p + 1/q for huge coprime p, q needs denominator p*q → throws
  // instead of normalizing a wrapped (and thus bogus) stripe count.
  const int64_t p = 2305843009213693951;  // 2^61 - 1
  const Rational a(1, p), b(1, p - 2);
  EXPECT_THROW(a + b, CheckError);
  EXPECT_THROW(a * b, CheckError);
  EXPECT_THROW(common_denominator({a, b}), CheckError);
  // Cancellation before any oversized product keeps working.
  EXPECT_EQ(a * Rational(p), Rational(1));
}

// ---------- flags ----------

TEST(Flags, ParsesValueBooleanAndPositional) {
  const Flags f({"--chunk=512", "--verify", "in.bin", "--threads", "4", "--",
                 "--not-a-flag"},
                /*boolean_flags=*/{"verify"});
  EXPECT_EQ(f.get_int("chunk", 0), 512);
  EXPECT_TRUE(f.has("verify"));
  EXPECT_EQ(f.get_int("threads", 0), 4);
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "in.bin");
  EXPECT_EQ(f.positional()[1], "--not-a-flag");  // after "--" all positional
}

TEST(Flags, RestrictToAcceptsKnownAndBooleanFlags) {
  const Flags f({"--chunk=512", "--stats"}, /*boolean_flags=*/{"stats"});
  EXPECT_NO_THROW(f.restrict_to({"chunk", "threads"}));
}

TEST(Flags, RestrictToRejectsUnknownFlagLoudly) {
  // The classic typo: --chnk instead of --chunk must die, not no-op.
  const Flags f({"--chnk=512"});
  try {
    f.restrict_to({"chunk", "threads"});
    FAIL() << "restrict_to accepted an unknown flag";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag --chnk"),
              std::string::npos)
        << e.what();
  }
}

// ---------- stats ----------

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(99), 99.0, 1e-9);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.percentile(50), CheckError);
}

TEST(Stats, PercentileInterpolates) {
  Stats s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

// ---------- table ----------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| long-name"), std::string::npos);
  // All lines equally wide.
  size_t first_len = s.find('\n');
  size_t pos = 0;
  for (size_t nl = s.find('\n'); nl != std::string::npos;
       nl = s.find('\n', pos)) {
    EXPECT_EQ(nl - pos, first_len);
    pos = nl + 1;
  }
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::num(42.0), "42");
}

TEST(LatencyHistogram, EmptyReportsZero) {
  util::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_s(0.5), 0.0);
  EXPECT_EQ(h.quantile_s(0.99), 0.0);
}

TEST(LatencyHistogram, SingleSampleReportsBucketUpperBound) {
  util::LatencyHistogram h;
  h.record_ns(1000);  // bucket 9 ([512, 1024) ns) → upper bound 1024 ns
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile_s(0.0), 1024e-9);
  EXPECT_DOUBLE_EQ(h.quantile_s(0.5), 1024e-9);
  EXPECT_DOUBLE_EQ(h.quantile_s(1.0), 1024e-9);
}

TEST(LatencyHistogram, RecordSecondsMatchesRecordNs) {
  util::LatencyHistogram a, b;
  a.record_s(1e-6);  // 1000 ns
  b.record_ns(1000);
  EXPECT_DOUBLE_EQ(a.quantile_s(0.5), b.quantile_s(0.5));
}

TEST(LatencyHistogram, NonPositiveSecondsClampToSmallestBucket) {
  util::LatencyHistogram h;
  h.record_s(-1.0);
  h.record_s(0.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile_s(1.0), 2e-9);  // bucket 0's upper bound
}

TEST(LatencyHistogram, TailQuantileLandsInTailBucket) {
  util::LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record_ns(100);  // bucket 6, [64, 128) ns
  h.record_ns(1u << 30);                          // ~1.07 s outlier
  // p50 is rank 50 of the 99 bucket-6 samples: 50/99 of [64, 128).
  EXPECT_DOUBLE_EQ(h.quantile_s(0.5), (64.0 + 64.0 * (50.0 / 99.0)) * 1e-9);
  // p99 is the bucket's LAST rank (99/99) → its upper bound exactly.
  EXPECT_DOUBLE_EQ(h.quantile_s(0.99), 128e-9);
  // p999 is the outlier, alone in its bucket → that bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.quantile_s(0.999),
                   static_cast<double>(uint64_t{1} << 31) * 1e-9);
}

TEST(LatencyHistogram, InterpolationSeparatesQuantilesWithinOneBucket) {
  util::LatencyHistogram h;
  // 1000 identical samples in bucket 10 ([1024, 2048) ns). Without
  // interpolation every quantile collapses to 2048 ns; with it the ranks
  // spread across the bucket span.
  for (int i = 0; i < 1000; ++i) h.record_ns(1500);
  const double p50 = h.quantile_s(0.50);    // rank 500 → 50.0% of the span
  const double p99 = h.quantile_s(0.99);    // rank 990 → 99.0%
  const double p999 = h.quantile_s(0.999);  // rank 999 → 99.9%
  EXPECT_LT(p50, p99);
  EXPECT_LT(p99, p999);
  EXPECT_LT(p999, 2048e-9);  // strictly inside the bucket (rank 999 < 1000)
  EXPECT_GE(p50, 1024e-9);   // never below the bucket's lower bound
  EXPECT_DOUBLE_EQ(h.quantile_s(1.0), 2048e-9);  // last rank → upper bound
}

TEST(LatencyHistogram, ResetZeroesEverything) {
  util::LatencyHistogram h;
  h.record_ns(12345);
  ASSERT_GT(h.count(), 0u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_s(0.99), 0.0);
}

}  // namespace
}  // namespace galloper
