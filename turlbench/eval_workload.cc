// eval_row_population: bulk evaluation of the row-population head at the
// paper's TinyBERT shape (N=4, d=312, d_ff=1200, 12 heads) with random
// initial weights, through a default rt::InferenceSession:
// TurlRowPopulator::Evaluate on 250 row-population queries drawn by seed
// from the held-out tables. Queries are (nearly) all distinct, so the model
// inputs do not repeat. Evaluate is called on chunks of one scheduler
// batch each (BatchSchedulerOptions::max_batch_tables queries), so a
// query's latency is the duration of the call that returns it and a run
// holds enough calls for a steady tail.
//
// The traced run calls rt::BulkRun — the bulk path Evaluate takes — on each
// chunk, with spans around head.Encode and head.ScoresFrom in its
// callbacks; the session's forward time per instance comes from the
// runtime's own wide events over the timed rounds.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "baselines/row_population.h"
#include "core/model.h"
#include "obs/eventlog.h"
#include "rt/batch_scheduler.h"
#include "rt/bulk.h"
#include "rt/inference_session.h"
#include "tasks/row_population.h"
#include "tasks/task_head.h"
#include "util/rng.h"
#include "workloads.h"

namespace turlbench {
namespace {

using turl::core::EncodedTable;
using turl::core::TurlModel;
using turl::rt::InferenceSession;
using turl::tasks::RowPopInstance;

constexpr uint64_t kModelSeed = 13;
constexpr int kRowPopQueries = 250;
constexpr int kRowPopSeeds = 1;
constexpr int kRowPopMinSubjects = 6;
/// Instances whose batched scores are checked against the per-instance
/// path.
constexpr size_t kChecked = 12;

struct State {
  turl::core::TurlContext ctx;
  std::vector<RowPopInstance> instances;
  std::unique_ptr<TurlModel> model;
  std::unique_ptr<turl::tasks::TurlRowPopulator> head;
  std::unique_ptr<InferenceSession> session;

  static std::unique_ptr<State> Make(uint64_t seed) {
    auto s = std::make_unique<State>();
    s->ctx = BuildCorpus();
    const turl::baselines::RowPopCandidateGenerator generator(
        s->ctx.corpus, s->ctx.corpus.train);
    std::vector<size_t> held_out = s->ctx.corpus.valid;
    held_out.insert(held_out.end(), s->ctx.corpus.test.begin(),
                    s->ctx.corpus.test.end());
    turl::Rng rng(seed);
    rng.Shuffle(&held_out);
    s->instances = turl::tasks::BuildRowPopInstances(
        s->ctx, generator, held_out, kRowPopSeeds, kRowPopMinSubjects,
        kRowPopQueries);
    s->model = std::make_unique<TurlModel>(PaperConfig(), s->ctx.vocab.size(),
                                           s->ctx.entity_vocab.size(),
                                           kModelSeed);
    s->head =
        std::make_unique<turl::tasks::TurlRowPopulator>(s->model.get(), &s->ctx);
    s->session = std::make_unique<InferenceSession>(*s->model);
    return s;
  }

  /// Evaluate's figures, compared bit for bit across rounds and paths.
  std::vector<double> Evaluate(const std::vector<RowPopInstance>& queries,
                               const InferenceSession* with) const {
    const turl::tasks::RowPopMetrics m = head->Evaluate(queries, with);
    return {m.map, m.recall};
  }

  double CandidatesPerQuery() const {
    double candidates = 0.0;
    for (const RowPopInstance& q : instances) {
      candidates += double(q.candidates.size());
    }
    return candidates / double(std::max<size_t>(instances.size(), 1));
  }
};

/// The runtime's own per-instance wide events ("rt" origin) since start_ms.
std::vector<turl::obs::WideEvent> RtEventsSince(double start_ms) {
  std::vector<turl::obs::WideEvent> out;
  for (const turl::obs::WideEvent& e : turl::obs::EventLog::Get().Snapshot()) {
    if (e.origin != nullptr && std::strcmp(e.origin, "rt") == 0 &&
        e.end_ms >= start_ms) {
      out.push_back(e);
    }
  }
  return out;
}

struct RtStats {
  std::vector<double> queue_wait_ms, encode_ms, batch_size;
  /// Sum over requests of the batch encode time / batch size: the session's
  /// forward time, spread over the instances that shared it.
  double forward_ms = 0.0;
  int64_t not_ok = 0;

  void Add(const std::vector<turl::obs::WideEvent>& events) {
    for (const turl::obs::WideEvent& e : events) {
      queue_wait_ms.push_back(e.queue_wait_us / 1e3);
      encode_ms.push_back(e.encode_us / 1e3);
      batch_size.push_back(e.batch_size);
      if (e.batch_size > 0) forward_ms += e.encode_us / 1e3 / e.batch_size;
      if (e.status == nullptr || std::strcmp(e.status, "ok") != 0) ++not_ok;
    }
  }
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

template <typename T>
std::vector<T> SeededSample(const std::vector<T>& all, size_t k,
                            uint64_t seed) {
  std::vector<T> copy = all;
  turl::Rng rng(seed);
  rng.Shuffle(&copy);
  copy.resize(std::min(k, copy.size()));
  return copy;
}

/// Batched scores (the path Evaluate takes) against the per-instance
/// Scores; returns the number of instances that differ.
template <typename Head, typename Instance>
int64_t CheckScores(const Head& head, const std::vector<Instance>& sample,
                    const InferenceSession& session) {
  const std::vector<std::vector<float>> batched =
      turl::tasks::BulkScores(head, sample, session);
  int64_t mismatched = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (!SameBits(batched[i], head.Scores(sample[i]))) ++mismatched;
  }
  return mismatched;
}

struct HeadTrace {
  double input_ms = 0.0;  // Sum over instances.
  double score_ms = 0.0;  // Sum over instances.
  double wall_ms = 0.0;
};

/// Evaluate's bulk path — rt::BulkRun, as tasks::BulkScores calls it — on
/// each chunk in turn, with a span around the head's calls in each
/// callback.
template <typename Head, typename Instance>
HeadTrace TraceHead(const Head& head,
                    const std::vector<std::vector<Instance>>& chunks,
                    const InferenceSession& session) {
  HeadTrace trace;
  const Clock::time_point start = Clock::now();
  for (const std::vector<Instance>& instances : chunks) {
    const size_t n = instances.size();
    std::vector<double> input_ms(n, 0.0), score_ms(n, 0.0);
    (void)turl::rt::BulkRun<std::vector<float>>(
        session, n,
        [&](size_t i) {
          Span span(&input_ms[i]);
          return head.Encode(instances[i]);
        },
        [&](size_t i, const EncodedTable& encoded,
            const turl::nn::Tensor& hidden) {
          Span span(&score_ms[i]);
          return head.ScoresFrom(hidden, encoded, instances[i]);
        });
    for (size_t i = 0; i < n; ++i) {
      trace.input_ms += input_ms[i];
      trace.score_ms += score_ms[i];
    }
  }
  trace.wall_ms = MsBetween(start, Clock::now());
  return trace;
}

/// The queries split into consecutive chunks of at most `size`.
std::vector<std::vector<RowPopInstance>> Chunks(
    const std::vector<RowPopInstance>& all, size_t size) {
  std::vector<std::vector<RowPopInstance>> out;
  for (size_t i = 0; i < all.size(); i += size) {
    out.emplace_back(all.begin() + i,
                     all.begin() + std::min(all.size(), i + size));
  }
  return out;
}

}  // namespace

void RunEvalRowPopulation(const RunOptions& options, Report* report) {
  Setups<State> setups(kSetups,
                       [&] { return State::Make(options.seed); });
  const std::unique_ptr<State> state = setups.Build();
  const State& s = *state;
  const auto& head = *s.head;
  const size_t n = s.instances.size();
  report->Line("config: N=4 d=312 d_ff=1200 heads=12, random weights (model "
               "seed %llu); %d session threads",
               (unsigned long long)kModelSeed, s.session->num_threads());

  // Input properties of the model inputs the head builds.
  std::vector<EncodedTable> inputs;
  std::vector<std::string> keys;
  for (const auto& inst : s.instances) {
    inputs.push_back(head.Encode(inst));
    keys.push_back(InputKey(inputs.back()));
  }
  const ElementStats elems = ElementsOf(inputs);
  report->Line("inputs: %zu row-population queries (%.1f candidates each), "
               "elements per input min %d / median %.1f / max %d, repeat "
               "share %.3f",
               n, s.CandidatesPerQuery(), elems.min, elems.median, elems.max,
               RepeatShare(keys));

  // Correctness: batched scores equal per-instance scores on a seeded
  // sample, and Evaluate with a session equals the sequential Evaluate.
  const auto sample = SeededSample(s.instances, kChecked, options.seed + 101);
  const int64_t bad = CheckScores(head, sample, *s.session);
  report->Gate("eval.batched_equals_single", bad == 0,
               std::to_string(sample.size()) + " instances");
  report->Gate("eval.session_equals_sequential",
               SameBits(s.Evaluate(sample, s.session.get()),
                        s.Evaluate(sample, nullptr)),
               "Evaluate's figures on the sample");

  // A round is one Evaluate call per chunk, over all the queries; each
  // chunk is one batch of the scheduler Evaluate runs on.
  const auto chunks = Chunks(
      s.instances,
      size_t(turl::rt::BatchSchedulerOptions{}.max_batch_tables));
  // Evaluate hands back every instance's result when it returns, so an
  // instance's latency is the duration of its chunk's Evaluate call.
  const auto run_round = [&](std::vector<double>* latency_ms) {
    std::vector<double> figures;
    for (const auto& chunk : chunks) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> f = s.Evaluate(chunk, s.session.get());
      latency_ms->insert(latency_ms->end(), chunk.size(),
                         MsBetween(t0, Clock::now()));
      figures.insert(figures.end(), f.begin(), f.end());
    }
    return figures;
  };

  // One untimed round first: the first pass grows the allocator's pools to
  // the working set and runs slower than the passes after it.
  {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> untimed;
    (void)run_round(&untimed);
    report->Line("warm-up round %.3f s (not timed)",
                 MsBetween(t0, Clock::now()) / 1e3);
  }

  RtStats rt;
  std::vector<double> round_s, latency_ms;
  std::vector<std::vector<double>> figures;
  Repeat(
      options.trace ? options.seconds / 2 : options.seconds, 2,
      [&] {
        const double start_ms = SteadyNowMs();
        const Clock::time_point t0 = Clock::now();
        figures.push_back(run_round(&latency_ms));
        round_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
        // Snapshot per round: a round's events must fit the per-thread ring.
        rt.Add(RtEventsSince(start_ms));
      },
      [&] { setups.Spread(); });
  const double setup_s = setups.Finish(report);

  bool repeatable = true;
  std::vector<double> per_s;
  std::string round_times;
  for (size_t r = 0; r < round_s.size(); ++r) {
    per_s.push_back(double(n) / round_s[r]);
    repeatable = repeatable && SameBits(figures[r], figures[0]);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", round_s[r]);
    round_times += buf;
  }
  report->Line("rounds (s):%s", round_times.c_str());
  report->Gate("eval.rounds_repeat_exactly", repeatable,
               std::to_string(round_s.size()) + " rounds, first figure " +
                   std::to_string(figures[0][0]));
  report->Gate("eval.runtime_requests_ok", rt.not_ok == 0,
               std::to_string(rt.queue_wait_ms.size()) + " runtime requests");
  report->Count(int64_t(round_s.size() * n + sample.size()), bad);

  const double throughput = Median(per_s);
  report->Line("eval_row_population_per_s %.3f instances/s (median of %zu "
               "rounds)", throughput, round_s.size());
  report->Line("instance latency (Evaluate call to result; the instances of "
               "a chunk share it, %zu calls of up to %zu queries): %s",
               round_s.size() * chunks.size(), chunks[0].size(),
               LatencySummary(latency_ms).c_str());

  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("throughput_per_s", throughput, "1/s");
  report->EndToEnd("latency_p50_ms", Percentile(latency_ms, 50), "ms");
  report->EndToEnd("latency_p95_ms", Percentile(latency_ms, 95), "ms");
  if (!options.trace) return;

  const HeadTrace trace = TraceHead(head, chunks, *s.session);
  const double session_forward =
      rt.forward_ms / double(std::max<size_t>(rt.encode_ms.size(), 1));

  // One-thread model forwards on a seeded sample of the inputs.
  double model_ms = 0.0;
  const size_t k = std::max<size_t>(1, n / 24);
  turl::Rng rng(options.seed + 103);
  for (size_t i = 0; i < k; ++i) {
    const EncodedTable& t = inputs[rng.Uniform(inputs.size())];
    Span span(&model_ms);
    (void)s.model->Encode(t, /*training=*/false);
  }
  const double model_forward = model_ms / double(k);

  report->Layer("tasks.row_population.input_ms", trace.input_ms / double(n),
                "ms");
  report->Layer("tasks.row_population.score_ms", trace.score_ms / double(n),
                "ms");
  report->Layer("rt.session.forward_ms", session_forward, "ms");
  report->Layer("core.model.forward_ms", model_forward, "ms");
  report->Layer("rt.session.parallel_efficiency",
                model_forward / (s.session->num_threads() * session_forward),
                "ratio");
  report->Layer("rt.queue_wait_ms.p50", Percentile(rt.queue_wait_ms, 50),
                "ms");
  report->Layer("rt.queue_wait_ms.p99", Percentile(rt.queue_wait_ms, 99),
                "ms");
  report->Layer("rt.batch_size", MeanBatchSize(rt.batch_size), "count");
  report->Layer("rt.batch_encode_ms", Median(rt.encode_ms), "ms");
  report->Layer("trace.overhead_ms",
                (trace.wall_ms - Median(round_s) * 1e3) / double(n), "ms");
  ProbeKernels(int64_t(std::lround(elems.median)), s.ctx.vocab.size(),
               report);
}

}  // namespace turlbench
