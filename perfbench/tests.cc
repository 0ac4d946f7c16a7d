// Unit tests of the harness helpers in common.h: the exact-percentile rule,
// the Zipf picker, metric-name syntax, seeded op streams and the result
// line. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace {

int g_failed = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failed;                                                    \
    }                                                                \
  } while (0)

using namespace perfbench;

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(exact_percentile(v, 0.5) == 500);
  CHECK(exact_percentile(v, 0.99) == 990);
  CHECK(exact_percentile(v, 1.0) == 1000);
  CHECK(exact_percentile({7}, 0.99) == 7);
  CHECK(exact_percentile({}, 0.5) == 0);
  // Order of the input does not matter.
  std::vector<double> rev(v.rbegin(), v.rend());
  CHECK(exact_percentile(rev, 0.99) == 990);

  // p99 needs 10 samples beyond it: 1000 samples is the least that has.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(supported_percentile(1000, 0.99) == 0.99);
  CHECK(samples_beyond(999, 0.99) < 10);
  CHECK(supported_percentile(999, 0.99) < 0.99);
  // With fewer samples the reported tail is the highest one with exactly
  // 10 samples beyond it.
  CHECK(samples_beyond(200, supported_percentile(200, 0.99)) == 10);
  CHECK(samples_beyond(123, supported_percentile(123, 0.99)) >= 10);
  CHECK(supported_percentile(15, 0.99) == 0.5);
}

void zipf_picker() {
  // theta = 0 is uniform: the CDF inverts to floor(u * n).
  const ZipfPicker uniform(4, 0);
  CHECK(uniform.pick(0.0) == 0);
  CHECK(uniform.pick(0.26) == 1);
  CHECK(uniform.pick(0.51) == 2);
  CHECK(uniform.pick(0.99) == 3);
  CHECK(uniform.pick(1.0) == 3);  // clamped

  // theta = 0.9 over 4 items: weights 1, 0.536, 0.372, 0.287 → the head
  // takes ~45% of draws and popularity falls with rank.
  const ZipfPicker zipf(4, 0.9);
  galloper::Rng rng(42);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.pick(rng)];
  CHECK(counts[0] > counts[1] && counts[1] > counts[2] &&
        counts[2] > counts[3]);
  CHECK(counts[0] > 43000 && counts[0] < 47000);

  // Same seed, same sequence.
  galloper::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) CHECK(zipf.pick(a) == zipf.pick(b));
}

void metric_names() {
  CHECK(valid_metric_name("read_p50_ms"));
  CHECK(valid_metric_name("codes.decode_fast.exec_us"));
  CHECK(valid_metric_name("io.hedge-win"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_leading"));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
}

void op_streams() {
  Traffic t;
  t.files = 4;
  t.file_bytes = 1 << 20;
  t.chunk_bytes = 1 << 16;
  t.zipf_theta = 0.9;
  t.update_fraction = 0.25;
  t.read_min = 1 << 12;
  t.read_max = 1 << 20;

  // Same (seed, client) → identical stream; other client or seed differ.
  OpStream a(t, 5, 0), b(t, 5, 0), c(t, 5, 1), d(t, 6, 0);
  bool differs_client = false, differs_seed = false;
  for (int i = 0; i < 500; ++i) {
    const Op x = a.next();
    CHECK(x == b.next());
    differs_client |= !(x == c.next());
    differs_seed |= !(x == d.next());
    CHECK(x.file < t.files);
    CHECK(x.offset + x.length <= t.file_bytes);
    if (x.kind == OpKind::kUpdate) {
      CHECK(x.offset % t.chunk_bytes == 0);
      CHECK(x.length == t.chunk_bytes);
    } else {
      CHECK(x.length >= t.read_min && x.length <= t.read_max);
    }
  }
  CHECK(differs_client);
  CHECK(differs_seed);

  const PlanCounts p = plan_counts(t, 5, 4, 1000);
  CHECK(p == plan_counts(t, 5, 4, 1000));
  CHECK(!(p == plan_counts(t, 6, 4, 1000)));
  CHECK(p.reads + p.updates == 4000);
  CHECK(p.updates > 800 && p.updates < 1200);  // ~25%
}

void result_line() {
  const std::string s = result_json(
      true, 12, 0, {{"a_ms", 1.5, "ms"}, {"b", 0.1, "count"}});
  CHECK(s ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
        "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": "
        "0.10000000000000001, \"unit\": \"count\"}}}");
}

}  // namespace

int main() {
  percentile_rule();
  zipf_picker();
  metric_names();
  op_streams();
  result_line();
  if (g_failed != 0) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", g_failed);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
