#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "obs/server/process_stats.h"
#include "util/rng.h"

extern char** environ;

namespace turlbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + long(mid),
                   samples.end());
  const double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(samples.begin(), samples.begin() + long(mid));
  return (lo + hi) / 2.0;
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * double(n) - 1e-9);
  return std::clamp<size_t>(size_t(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

int64_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return int64_t(n) - int64_t(NearestRank(n, p));
}

Tail HighestSupportedPercentile(std::vector<double> samples,
                                int64_t min_beyond) {
  Tail tail;
  std::sort(samples.begin(), samples.end());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const int64_t beyond = SamplesBeyond(samples.size(), p);
    if (beyond >= min_beyond) {
      tail.percentile = p;
      tail.value = samples[NearestRank(samples.size(), p) - 1];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

std::string LatencySummary(const std::vector<double>& ms) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "p50 %.4f ms, p95 %.4f ms, p99 %.4f ms (n=%zu; highest "
                "percentile with >= 10 samples beyond: p%.1f)",
                Percentile(ms, 50), Percentile(ms, 95), Percentile(ms, 99),
                ms.size(), HighestSupportedPercentile(ms).percentile);
  return buf;
}

double MeanBatchSize(const std::vector<double>& per_request_sizes) {
  double batches = 0.0;
  for (double b : per_request_sizes) batches += b > 0 ? 1.0 / b : 0.0;
  return batches > 0 ? double(per_request_sizes.size()) / batches : 0.0;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t n) {
  turl::Rng rng(seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    due[i] = t;
  }
  return due;
}

Outcome OutcomeOf(turl::rt::ResponseStatus status) {
  switch (status) {
    case turl::rt::ResponseStatus::kOk:
      return Outcome::kOk;
    case turl::rt::ResponseStatus::kOverloaded:
    case turl::rt::ResponseStatus::kShuttingDown:
      return Outcome::kShed;
    case turl::rt::ResponseStatus::kDeadlineExceeded:
      return Outcome::kDeadline;
    default:
      return Outcome::kOtherError;
  }
}

void PhaseTally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      break;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kDeadline:
      ++deadline;
      break;
    case Outcome::kTransport:
      ++transport;
      break;
    case Outcome::kOtherError:
      ++other;
      break;
  }
}

namespace {

Outcome SafeSend(const SendFn& send, int worker, size_t index) {
  try {
    return send(worker, index);
  } catch (...) {
    return Outcome::kOtherError;
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int workers,
                           const SendFn& send) {
  const size_t n = due_s.size();
  OpenLoopResult result;
  result.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  result.late_ms.assign(n, 0.0);
  std::vector<Outcome> outcomes(n, Outcome::kTransport);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        result.late_ms[i] = MsBetween(due, Clock::now());
        outcomes[i] = SafeSend(send, w, i);
        if (outcomes[i] == Outcome::kOk) {
          result.latency_ms[i] = MsBetween(due, Clock::now());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  for (Outcome o : outcomes) result.tally.Add(o);
  return result;
}

ClosedLoopResult RunClosedLoop(int workers, double seconds,
                               const SendFn& send) {
  std::atomic<size_t> next{0};
  std::vector<PhaseTally> tallies(size_t(std::max(workers, 0)));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (Clock::now() < stop) {
        tallies[size_t(w)].Add(SafeSend(send, w, next.fetch_add(1)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult result;
  result.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  for (const PhaseTally& t : tallies) {
    result.tally.attempted += t.attempted;
    result.tally.ok += t.ok;
    result.tally.shed += t.shed;
    result.tally.deadline += t.deadline;
    result.tally.transport += t.transport;
    result.tally.other += t.other;
  }
  result.ok_per_s =
      result.elapsed_s > 0 ? double(result.tally.ok) / result.elapsed_s : 0.0;
  return result;
}

ElementStats ElementsOf(const std::vector<turl::core::EncodedTable>& inputs) {
  ElementStats stats;
  if (inputs.empty()) return stats;
  std::vector<double> totals;
  totals.reserve(inputs.size());
  for (const turl::core::EncodedTable& t : inputs) totals.push_back(t.total());
  stats.min = int(*std::min_element(totals.begin(), totals.end()));
  stats.max = int(*std::max_element(totals.begin(), totals.end()));
  stats.median = Median(totals);
  return stats;
}

namespace {

void AppendInts(const std::vector<int>& v, std::string* out) {
  const uint32_t n = uint32_t(v.size());
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(int));
}

}  // namespace

std::string InputKey(const turl::core::EncodedTable& table) {
  std::string key;
  for (const std::vector<int>* v :
       {&table.token_ids, &table.token_segment, &table.token_position,
        &table.token_column, &table.entity_ids, &table.entity_role,
        &table.entity_row, &table.entity_column}) {
    AppendInts(*v, &key);
  }
  for (const std::vector<int>& mention : table.entity_mentions) {
    AppendInts(mention, &key);
  }
  return key;
}

double RepeatShare(const std::vector<std::string>& keys) {
  if (keys.empty()) return 0.0;
  std::unordered_set<std::string> seen;
  int64_t repeats = 0;
  for (const std::string& key : keys) {
    if (!seen.insert(key).second) ++repeats;
  }
  return double(repeats) / double(keys.size());
}

double PeakRssMb() {
  turl::obs::server::ProcessStats stats;
  if (!turl::obs::server::SampleProcessStats(&stats)) return 0.0;
  return double(stats.peak_rss_bytes) / 1e6;
}

std::vector<std::string> TurlEnvVars() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "TURL_", 5) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    names.emplace_back(*env, eq != nullptr ? size_t(eq - *env)
                                           : std::strlen(*env));
  }
  return names;
}

void Report::Line(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::Gate(const std::string& name, bool pass,
                  const std::string& detail) {
  if (!pass) correct_ = false;
  Line("gate %-36s %s  %s", name.c_str(), pass ? "PASS" : "FAIL",
       detail.c_str());
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

std::string Report::ResultJson(const std::vector<Metric>& metrics) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // JSON has no infinities: a metric that is not finite (every sample
    // failed) is reported as a huge number rather than dropped.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace turlbench
