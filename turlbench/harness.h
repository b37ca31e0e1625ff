// Helpers shared by the benchmark's workloads: statistics, seeded arrival
// schedules, open- and closed-loop load generators, input-property
// summaries, process figures and the result report. Nothing here knows
// about a particular workload; selftest.cc pins the behaviour.
#ifndef TURLBENCH_HARNESS_H_
#define TURLBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/table_encoding.h"
#include "rt/request.h"

namespace turlbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Adds the wall time of its scope to *acc_ms — the benchmark's own span
/// around one call into a layer.
class Span {
 public:
  explicit Span(double* acc_ms) : acc_ms_(acc_ms), start_(Clock::now()) {}
  ~Span() { *acc_ms_ += MsBetween(start_, Clock::now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_ms_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------- statistics

/// Median of the samples (mean of the middle two for even counts); NaN when
/// empty.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank position of percentile p.
int64_t SamplesBeyond(size_t n, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// `min_beyond` samples beyond it; percentile 0 (value NaN) when even the
/// median lacks them.
struct Tail {
  double percentile = 0.0;
  double value = std::numeric_limits<double>::quiet_NaN();
  int64_t beyond = 0;
};
Tail HighestSupportedPercentile(std::vector<double> samples,
                                int64_t min_beyond = 10);

/// "p50 .. ms, p95 .. ms, p99 .. ms (n=..; highest percentile with >= 10
/// samples beyond: p..)" for a report line.
std::string LatencySummary(const std::vector<double>& ms);

/// Mean size of the batches behind per-request batch sizes: a batch of b
/// requests appears b times, so it counts 1/b per appearance.
double MeanBatchSize(const std::vector<double>& per_request_sizes);

// ------------------------------------------------------- arrival schedules

/// Due times (seconds from the start) of `n` Poisson arrivals at
/// `rate_per_s`: exponential gaps drawn from turl::Rng(seed).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t n);

// ------------------------------------------------------------------ outcomes

/// How one request ended, from the client's side.
enum class Outcome { kOk, kShed, kDeadline, kTransport, kOtherError };

Outcome OutcomeOf(turl::rt::ResponseStatus status);

/// Outcomes of one load phase. Everything but kOk counts as failed.
struct PhaseTally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t deadline = 0;
  int64_t transport = 0;
  int64_t other = 0;

  void Add(Outcome outcome);
  int64_t failed() const { return attempted - ok; }
};

// ---------------------------------------------------------- load generators

/// Sends request i (i < n) by calling send(worker, i); returns its outcome.
using SendFn = std::function<Outcome(int worker, size_t index)>;

struct OpenLoopResult {
  /// Per request, in schedule order: reply time minus *due* time, so a
  /// stall also charges the requests that could not be sent while it
  /// lasted. Failed requests count as missing any latency limit (+inf).
  std::vector<double> latency_ms;
  /// Per request: actual send time minus due time (the generator's own
  /// lateness).
  std::vector<double> late_ms;
  PhaseTally tally;
  double elapsed_s = 0.0;
};

/// Open loop: request i becomes due at start + due_s[i] and is sent by the
/// first of `workers` threads free at or after that time.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int workers,
                           const SendFn& send);

struct ClosedLoopResult {
  PhaseTally tally;
  double elapsed_s = 0.0;
  /// kOk replies per second over the phase.
  double ok_per_s = 0.0;
};

/// Closed loop: each of `workers` threads sends its next request as soon as
/// the previous one returned, until `seconds` have passed. Request indices
/// are handed out from one global sequence.
ClosedLoopResult RunClosedLoop(int workers, double seconds,
                               const SendFn& send);

// --------------------------------------------------------- input properties

/// Elements (tokens + entities) per model input.
struct ElementStats {
  int min = 0;
  double median = 0.0;
  int max = 0;
};
ElementStats ElementsOf(const std::vector<turl::core::EncodedTable>& inputs);

/// Byte key of everything the model reads from an encoded table (ground-
/// truth KB ids excluded): equal keys mean equal model inputs.
std::string InputKey(const turl::core::EncodedTable& table);

/// Share of keys, in order, that equal an earlier key.
double RepeatShare(const std::vector<std::string>& keys);

// ------------------------------------------------------------------ process

/// Peak resident set of this process, MB (VmHWM).
double PeakRssMb();

/// Names of environment variables starting with TURL_.
std::vector<std::string> TurlEnvVars();

// ------------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints: human-readable lines as it goes, gates, and the final
/// one-line JSON result.
class Report {
 public:
  /// printf-style line on stdout, flushed.
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A correctness gate; a failed gate makes the run incorrect.
  void Gate(const std::string& name, bool pass, const std::string& detail);
  void Count(int64_t attempted, int64_t failed);
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);

  bool correct() const { return correct_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }

  /// {"correct", "attempted", "failed", "metrics"} with the given metrics.
  std::string ResultJson(const std::vector<Metric>& metrics) const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
};

}  // namespace turlbench

#endif  // TURLBENCH_HARNESS_H_
