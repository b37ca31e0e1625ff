// Self-tests of the benchmark's own helpers (harness.h). run.py runs them
// before every benchmark run; any failure stops the run.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "harness.h"

namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

using namespace turlbench;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

// The percentile reported is the highest one with at least 10 samples
// beyond it.
void TestHighestSupportedPercentile() {
  Tail t = HighestSupportedPercentile(OneTo(1000));
  CHECK(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10);
  t = HighestSupportedPercentile(OneTo(999));  // p99 has only 9 beyond.
  CHECK(t.percentile == 95.0 && t.beyond >= 10);
  t = HighestSupportedPercentile(OneTo(1250));
  CHECK(t.percentile == 99.0 && t.beyond == 12);
  t = HighestSupportedPercentile(OneTo(10010));  // p99.9 has exactly 10.
  CHECK(t.percentile == 99.9 && t.beyond == 10);
  t = HighestSupportedPercentile(OneTo(20));
  CHECK(t.percentile == 50.0 && t.value == 10.0);
  t = HighestSupportedPercentile(OneTo(19));
  CHECK(t.percentile == 0.0 && std::isnan(t.value));
  for (int n : {11, 57, 400, 1000, 3333}) {
    const Tail tail = HighestSupportedPercentile(OneTo(n));
    if (tail.percentile == 0.0) continue;
    CHECK(SamplesBeyond(size_t(n), tail.percentile) >= 10);
    for (double higher : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if (higher > tail.percentile) {
        CHECK(SamplesBeyond(size_t(n), higher) < 10);
      }
    }
  }
  CHECK(Percentile(OneTo(100), 50) == 50.0);
  CHECK(std::fabs(MeanBatchSize({1, 3, 3, 3}) - 2.0) < 1e-12);  // 1 and 3.
  CHECK(Median(OneTo(4)) == 2.5 && Median(OneTo(5)) == 3.0);
}

// The seeded Poisson schedule is deterministic and holds its mean rate.
void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(7, 50.0, 20000);
  const std::vector<double> b = PoissonSchedule(7, 50.0, 20000);
  const std::vector<double> c = PoissonSchedule(8, 50.0, 20000);
  CHECK(a == b);
  CHECK(a != c);
  bool increasing = a[0] > 0.0;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  CHECK(increasing);
  const double rate = double(a.size()) / a.back();
  CHECK(std::fabs(rate - 50.0) / 50.0 < 0.03);
  // Exponential gaps: the share of gaps above the mean is about 1/e.
  int64_t long_gaps = 0;
  double prev = 0.0;
  for (double t : a) {
    long_gaps += (t - prev) > 1.0 / 50.0;
    prev = t;
  }
  CHECK(std::fabs(double(long_gaps) / double(a.size()) - std::exp(-1.0)) <
        0.02);
}

std::vector<double> Evenly(size_t n, double gap_s) {
  std::vector<double> due(n);
  for (size_t i = 0; i < n; ++i) due[i] = gap_s * double(i + 1);
  return due;
}

// A server stall shows up in latency timed from the due time, not hidden by
// the generator.
void TestStallShowsInLatency() {
  const std::vector<double> due = Evenly(20, 0.01);
  const auto send = [](int, size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 5 ? 300 : 1));
    return Outcome::kOk;
  };
  const OpenLoopResult one = RunOpenLoop(due, 1, send);
  // Request 6 was due 10 ms after the stalled request 5 but could only go
  // out when it returned: its service time is 1 ms, its latency ~290 ms.
  CHECK(one.latency_ms[6] > 250.0);
  CHECK(one.late_ms[6] > 250.0);
  CHECK(one.latency_ms[5] > 295.0);
  CHECK(one.latency_ms[19] > 100.0);  // The backlog drains at 1 req/ms.
  CHECK(Percentile(one.latency_ms, 50) > 100.0);
  // With a spare connection the stall delays only the stalled request.
  const OpenLoopResult two = RunOpenLoop(due, 2, send);
  CHECK(two.latency_ms[5] > 295.0);
  CHECK(two.latency_ms[6] < 100.0);
  CHECK(two.tally.attempted == 20 && two.tally.failed() == 0);
}

// Shed, deadline and transport outcomes count as failed against attempted,
// per phase, and failed requests miss any latency limit.
void TestFailuresCount() {
  const Outcome cycle[4] = {Outcome::kOk, Outcome::kShed, Outcome::kDeadline,
                            Outcome::kTransport};
  const auto send = [&](int, size_t i) { return cycle[i % 4]; };
  const OpenLoopResult open = RunOpenLoop(Evenly(40, 0.001), 2, send);
  CHECK(open.tally.attempted == 40 && open.tally.ok == 10);
  CHECK(open.tally.shed == 10 && open.tally.deadline == 10 &&
        open.tally.transport == 10 && open.tally.failed() == 30);
  CHECK(std::isinf(open.latency_ms[1]) && std::isinf(open.latency_ms[3]));
  CHECK(std::isfinite(open.latency_ms[0]));
  CHECK(std::isinf(Percentile(open.latency_ms, 50)));

  const ClosedLoopResult closed = RunClosedLoop(2, 0.05, [&](int, size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return cycle[i % 4];
  });
  const PhaseTally& t = closed.tally;
  CHECK(t.attempted > 8);
  CHECK(t.failed() == t.shed + t.deadline + t.transport + t.other);
  CHECK(t.failed() == t.attempted - t.ok && t.failed() > 0);
  CHECK(std::fabs(closed.ok_per_s - double(t.ok) / closed.elapsed_s) < 1e-9);

  CHECK(OutcomeOf(turl::rt::ResponseStatus::kOk) == Outcome::kOk);
  CHECK(OutcomeOf(turl::rt::ResponseStatus::kOverloaded) == Outcome::kShed);
  CHECK(OutcomeOf(turl::rt::ResponseStatus::kShuttingDown) == Outcome::kShed);
  CHECK(OutcomeOf(turl::rt::ResponseStatus::kDeadlineExceeded) ==
        Outcome::kDeadline);
  CHECK(OutcomeOf(turl::rt::ResponseStatus::kBadRequest) ==
        Outcome::kOtherError);
}

void TestInputProperties() {
  CHECK(RepeatShare({"a", "b", "a", "c", "b"}) == 0.4);
  CHECK(RepeatShare({}) == 0.0);
  turl::core::EncodedTable x, y;
  x.token_ids = {1, 2};
  y.token_ids = {1, 2};
  CHECK(InputKey(x) == InputKey(y));
  y.entity_kb_ids = {5};  // Ground truth is not a model input.
  CHECK(InputKey(x) == InputKey(y));
  y.token_segment = {0, 0};
  CHECK(InputKey(x) != InputKey(y));
  const ElementStats e = ElementsOf({x, y, x});
  CHECK(e.min == 2 && e.max == 2 && e.median == 2.0);
}

}  // namespace

int main() {
  TestHighestSupportedPercentile();
  TestPoissonSchedule();
  TestStallShowsInLatency();
  TestFailuresCount();
  TestInputProperties();
  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}
