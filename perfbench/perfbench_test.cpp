// The benchmark's own test: its correctness checks must be live. A clean
// short serving run reports no failures; the same run over an origin that
// corrupts one block must report some. Also checks the payload codec and
// the exact percentile recorder directly.
#include <cstdio>
#include <vector>

#include "harness.h"
#include "payload.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void test_payload() {
  std::vector<std::byte> buf(4096);
  Version v;
  expect(check_payload(buf, 7, &v) == PayloadCheck::kZero, "zero block reads as never written");
  fill_payload(buf, 7, Version{2, 41});
  expect(check_payload(buf, 7, &v) == PayloadCheck::kValid && v.writer == 2 && v.seq == 41,
         "payload round-trips its header");
  expect(check_payload(buf, 8, &v) == PayloadCheck::kCorrupt, "payload of another block is rejected");
  buf[1000] ^= std::byte{1};
  expect(check_payload(buf, 7, &v) == PayloadCheck::kCorrupt, "one flipped bit is rejected");
  std::vector<std::byte> zero(4096);
  zero[4000] = std::byte{1};
  expect(check_payload(zero, 7, &v) == PayloadCheck::kCorrupt, "a stray byte in a zero block is rejected");
}

void test_recorder() {
  LatencyRecorder r;
  for (std::uint64_t ns = 1; ns <= 100; ++ns) r.record(ns);
  r.record(5'000'000);  // beyond the dense range
  expect(r.count() == 101, "recorder counts samples");
  expect(r.percentile_ns(50) == 51, "p50 is the exact nearest-rank sample");
  expect(r.percentile_ns(100) == 5'000'000, "overflow samples keep their exact value");
}

WorkloadResult short_run(const OriginWrapper& wrap) {
  RunOptions opt;
  opt.workload = "serve_churn";
  opt.seed = 3;
  opt.seconds = 1.0;
  return run_serving(serve_churn_workload(), opt, wrap);
}

void test_failures_are_counted() {
  const WorkloadResult clean = short_run({});
  expect(clean.attempted > 0 && clean.failed == 0 && clean.correct,
         "clean serve_churn run: failed_frac == 0");

  // Corrupt the block of the 1000th origin read (during warm-up), on that
  // read and every later one.
  const WorkloadResult bad = short_run([](std::unique_ptr<ulc::Origin> inner) {
    return make_corrupting_origin(std::move(inner), 1000);
  });
  std::printf("     corrupting origin: %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(bad.failed),
              static_cast<unsigned long long>(bad.attempted));
  expect(bad.failed > 0 && !bad.correct, "corrupting origin: failed_frac > 0");
}

}  // namespace

int main() {
  test_payload();
  test_recorder();
  test_failures_are_counted();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
