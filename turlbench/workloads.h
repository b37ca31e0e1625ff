// The benchmark's workloads. Each one builds its inputs from the run's
// seed, measures for the run's length through the public APIs of core, rt,
// serve and tasks, checks its outputs, and files metrics into the Report:
// the end-to-end set on an untraced run, the per-layer set on a traced one.
#ifndef TURLBENCH_WORKLOADS_H_
#define TURLBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/context.h"
#include "harness.h"

namespace turlbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

void RunPretrain(const RunOptions& options, Report* report);
void RunServe(const RunOptions& options, Report* report);
void RunEvalRowPopulation(const RunOptions& options, Report* report);

/// Times the nn::kernels calls the model makes at the repro and paper
/// shapes for sequences of `n` elements, files the kernel metrics and
/// prints per-call operation and byte accounting.
void ProbeKernels(int64_t n, int64_t word_vocab, Report* report);

/// The shared corpus every workload draws from: 3000 synthetic tables,
/// world seed 42 (the repository's standard experimental environment).
turl::core::TurlContext BuildCorpus();

/// The paper's TinyBERT encoder shape: N=4, d=312, d_ff=1200, 12 heads.
turl::core::TurlConfig PaperConfig();

/// Milliseconds on the steady clock, the clock wide events are stamped on.
double SteadyNowMs();

/// Times a workload's set-up several times in a run and reports the
/// median, so work moved into set-up shows. The first set-up builds the
/// state the run measures. The others are spread over the run — one
/// between measured parts wherever the workload calls Spread(), the rest at
/// its end — so the median samples the machine across the whole run rather
/// than one moment at its start.
template <typename State>
class Setups {
 public:
  using Make = std::function<std::unique_ptr<State>()>;

  Setups(int count, Make make) : count_(count), make_(std::move(make)) {}

  /// Times one set-up and returns its state.
  std::unique_ptr<State> Build() {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<State> state = make_();
    seconds_.push_back(MsBetween(start, Clock::now()) / 1e3);
    return state;
  }

  /// Times one more set-up, if the run still needs one before its end, and
  /// discards its state (untimed).
  void Spread() {
    if (int(seconds_.size()) < count_ - 1) (void)Build();
  }

  /// Times the set-ups still missing, prints them all and returns their
  /// median in seconds.
  double Finish(Report* report) {
    while (int(seconds_.size()) < count_) (void)Build();
    std::string all;
    for (double s : seconds_) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4f", s);
      all += buf;
    }
    report->Line("setup (s):%s", all.c_str());
    return Median(seconds_);
  }

 private:
  int count_;
  Make make_;
  std::vector<double> seconds_;
};

/// Set-ups per run.
inline constexpr int kSetups = 15;

/// Runs `body` at least `min_reps` times, then again while another
/// repetition as long as the previous one still fits in `seconds`. Calls
/// `between` after each repetition, outside its timing.
template <typename Body, typename Between>
void Repeat(double seconds, int min_reps, Body body, Between between) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  for (int rep = 0;; ++rep) {
    const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
    if (rep >= min_reps && elapsed_s + last_s > seconds) break;
    const Clock::time_point t0 = Clock::now();
    body();
    last_s = MsBetween(t0, Clock::now()) / 1e3;
    between();
  }
}

}  // namespace turlbench

#endif  // TURLBENCH_WORKLOADS_H_
