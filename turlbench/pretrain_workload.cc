// pretrain: core::Pretrainer::Train at the repro config (N=2, d=64), one
// epoch over a seeded sample of training tables, fixed model and pretrain
// seeds, grad_accum_tables=1, no evaluation, no checkpoints. Every timed
// repetition trains a fresh model, so the final loss must come out
// bit-identical each time.
//
// The traced run replays Train's private step from the public calls it is
// made of (MakePretrainInstance, TurlModel::Encode, the MLM/MER heads,
// SoftmaxCrossEntropy, Backward, ClipGradNorm, Adam::Step) with a span
// around each layer, checks the replay reproduces Train's loss bit for
// bit, and checks the layer sum against the untraced time per table: a
// traced run whose layers do not add up exits non-zero without a result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/candidates.h"
#include "core/masking.h"
#include "core/model.h"
#include "core/pretrain.h"
#include "core/table_encoding.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "obs/eventlog.h"
#include "util/rng.h"
#include "workloads.h"

namespace turlbench {
namespace {

using turl::core::EncodedTable;
using turl::core::TurlModel;

/// Training tables per repetition.
constexpr int kTrainTables = 300;
/// Model-initialisation and pretrain seeds of the repository's standard
/// pre-training run.
constexpr uint64_t kModelSeed = 11;
constexpr uint64_t kPretrainSeed = 7;
/// |1 - layer sum / untraced time| the traced replay must stay within.
constexpr double kLayerSumBound = 0.10;

struct State {
  turl::core::TurlContext ctx;
  size_t full_train = 0;  // Size of the split the sample was drawn from.
};

/// The corpus with its training split cut to a seeded sample: the only
/// tables the Pretrainer sees.
std::unique_ptr<State> MakeState(uint64_t seed) {
  auto state = std::make_unique<State>();
  state->ctx = BuildCorpus();
  std::vector<size_t> train = state->ctx.corpus.train;
  state->full_train = train.size();
  turl::Rng rng(seed);
  rng.Shuffle(&train);
  if (train.size() > kTrainTables) {
    train.erase(train.begin() + kTrainTables, train.end());
  }
  state->ctx.corpus.train = std::move(train);
  return state;
}

turl::core::Pretrainer::Options TrainOptions() {
  turl::core::Pretrainer::Options opts;
  opts.epochs = 1;
  opts.max_train_tables = kTrainTables;
  opts.max_eval_tables = 0;  // No evaluation.
  opts.seed = kPretrainSeed;
  opts.grad_accum_tables = 1;
  return opts;
}

std::unique_ptr<TurlModel> FreshModel(const turl::core::TurlContext& ctx) {
  return std::make_unique<TurlModel>(turl::core::TurlConfig{},
                                     ctx.vocab.size(),
                                     ctx.entity_vocab.size(), kModelSeed);
}

struct TrainRun {
  double seconds = 0.0;
  double loss = 0.0;
  int64_t steps = 0;
  int64_t failed_steps = 0;
  std::vector<double> step_ms;
};

/// One untraced Train call on a fresh model. Per-step latencies come from
/// the wide events the Pretrainer itself emits (obs::EventLog is on by
/// default).
TrainRun TrainOnce(const State& state) {
  auto model = FreshModel(state.ctx);
  turl::core::Pretrainer pretrainer(model.get(), &state.ctx);
  const double start_ms = SteadyNowMs();
  const Clock::time_point start = Clock::now();
  const turl::core::PretrainResult result = pretrainer.Train(TrainOptions());
  TrainRun run;
  run.seconds = MsBetween(start, Clock::now()) / 1e3;
  run.loss = result.final_loss;
  run.steps = result.steps;
  for (const turl::obs::WideEvent& e : turl::obs::EventLog::Get().Snapshot()) {
    if (e.origin == nullptr || std::strcmp(e.origin, "train") != 0) continue;
    if (e.end_ms < start_ms) continue;
    run.step_ms.push_back(e.total_us / 1e3);
    if (e.status == nullptr || std::strcmp(e.status, "ok") != 0) {
      ++run.failed_steps;
    }
  }
  return run;
}

struct LayerTimes {
  double masking = 0, encode_fwd = 0, heads_fwd = 0, backward = 0, optim = 0;
};

struct ReplayRun {
  LayerTimes ms;  // Totals over the epoch.
  double seconds = 0.0;
  double loss = std::numeric_limits<double>::quiet_NaN();
  int64_t steps = 0;
};

/// Train's grad_accum_tables=1 step sequence, rebuilt from public calls,
/// with a span around each layer.
ReplayRun ReplayOnce(const State& state) {
  const turl::core::TurlContext& ctx = state.ctx;
  auto model = FreshModel(ctx);
  const turl::core::TurlConfig& cfg = model->config();
  const turl::text::WordPieceTokenizer tokenizer = ctx.MakeTokenizer();
  std::vector<EncodedTable> encoded;
  for (size_t idx : ctx.corpus.train) {
    encoded.push_back(turl::core::EncodeTable(ctx.corpus.tables[idx],
                                              tokenizer, ctx.entity_vocab));
  }
  const turl::core::CooccurrenceIndex cooc =
      turl::core::CooccurrenceIndex::Build(ctx.corpus, ctx.corpus.train,
                                           ctx.entity_vocab);

  ReplayRun run;
  const Clock::time_point start = Clock::now();
  turl::Rng rng(kPretrainSeed);
  const size_t tables = std::min<size_t>(encoded.size(), kTrainTables);
  turl::nn::Adam adam(model->params(),
                      turl::nn::AdamConfig{.lr = cfg.learning_rate});
  turl::nn::LinearDecaySchedule schedule(int64_t(tables), 0.05f);
  std::vector<size_t> order(encoded.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);

  double loss_sum = 0.0;
  for (size_t oi = 0; oi < tables; ++oi) {
    const EncodedTable& clean = encoded[order[oi]];
    if (clean.total() == 0) continue;
    turl::core::PretrainInstance instance;
    {
      Span span(&run.ms.masking);
      instance = turl::core::MakePretrainInstance(
          clean, cfg, model->word_vocab_size(), model->entity_vocab_size(),
          &rng);
    }
    turl::nn::Tensor hidden;
    {
      Span span(&run.ms.encode_fwd);
      hidden = model->Encode(instance.input, /*training=*/true, &rng);
    }
    std::vector<int> mlm_rows, mlm_targets, mer_rows, mer_ids;
    for (int i = 0; i < instance.input.num_tokens(); ++i) {
      if (instance.mlm_targets[size_t(i)] >= 0) {
        mlm_rows.push_back(i);
        mlm_targets.push_back(instance.mlm_targets[size_t(i)]);
      }
    }
    for (int i = 0; i < instance.input.num_entities(); ++i) {
      if (instance.mer_targets[size_t(i)] >= 0) {
        mer_rows.push_back(TurlModel::EntityHiddenRow(instance.input, i));
        mer_ids.push_back(instance.mer_targets[size_t(i)]);
      }
    }
    turl::nn::Tensor loss;
    if (!mlm_rows.empty()) {
      Span span(&run.ms.heads_fwd);
      loss = turl::nn::SoftmaxCrossEntropy(
          model->MlmLogits(hidden, mlm_rows), mlm_targets);
      (void)loss.item();
    }
    if (!mer_rows.empty()) {
      std::vector<int> candidates;
      {
        Span span(&run.ms.masking);
        candidates = turl::core::BuildMerCandidates(
            clean, cooc, model->entity_vocab_size(), cfg.mer_max_candidates,
            cfg.mer_min_random_negatives, &rng);
      }
      Span span(&run.ms.heads_fwd);
      std::vector<int> targets;
      for (int id : mer_ids) {
        const auto it = std::find(candidates.begin(), candidates.end(), id);
        if (it == candidates.end()) return run;  // Loss stays NaN: gate fails.
        targets.push_back(int(it - candidates.begin()));
      }
      turl::nn::Tensor mer = turl::nn::SoftmaxCrossEntropy(
          model->MerLogits(hidden, mer_rows, candidates), targets);
      (void)mer.item();
      loss = loss.defined() ? turl::nn::Add(loss, mer) : mer;
    }
    if (!loss.defined()) continue;
    {
      Span span(&run.ms.backward);
      model->params()->ZeroGrad();
      loss.Backward();
    }
    {
      Span span(&run.ms.optim);
      turl::nn::ClipGradNorm(model->params(), cfg.grad_clip);
      adam.Step(schedule.Scale(run.steps));
    }
    loss_sum += loss.item();
    ++run.steps;
  }
  run.seconds = MsBetween(start, Clock::now()) / 1e3;
  run.loss = run.steps > 0 ? loss_sum / double(run.steps) : 0.0;
  return run;
}

std::string Bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// " 12.34": one entry of a space-separated list.
std::string Fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %.2f", v);
  return buf;
}

}  // namespace

void RunPretrain(const RunOptions& options, Report* report) {
  Setups<State> setups(kSetups, [&] {
    auto s = MakeState(options.seed);
    // The model and the Pretrainer's corpus encoding are part of getting
    // ready to train.
    auto model = FreshModel(s->ctx);
    turl::core::Pretrainer pretrainer(model.get(), &s->ctx);
    return s;
  });
  const std::unique_ptr<State> state = setups.Build();

  const turl::text::WordPieceTokenizer tokenizer = state->ctx.MakeTokenizer();
  std::vector<EncodedTable> inputs;
  std::vector<std::string> keys;
  for (size_t idx : state->ctx.corpus.train) {
    inputs.push_back(turl::core::EncodeTable(state->ctx.corpus.tables[idx],
                                             tokenizer,
                                             state->ctx.entity_vocab));
    keys.push_back(InputKey(inputs.back()));
  }
  const ElementStats elems = ElementsOf(inputs);
  report->Line("inputs: %zu training tables (seeded sample of %zu), "
               "elements per table min %d / median %.1f / max %d, "
               "repeat share %.3f",
               inputs.size(), state->full_train, elems.min,
               elems.median, elems.max, RepeatShare(keys));
  report->Line("config: N=2 d=64 (TurlConfig{}), model seed %llu, pretrain "
               "seed %llu, grad_accum_tables=1, 1 epoch, no eval",
               (unsigned long long)kModelSeed,
               (unsigned long long)kPretrainSeed);

  // Untraced repetitions; a traced run alternates them with traced replays
  // so both see the same machine. At least 4: 1200 steps, so the step p99
  // has 12 samples beyond it.
  std::vector<TrainRun> runs;
  std::vector<ReplayRun> replays;
  Repeat(
      options.seconds, 4,
      [&] {
        runs.push_back(TrainOnce(*state));
        if (options.trace) replays.push_back(ReplayOnce(*state));
      },
      [&] { setups.Spread(); });
  const double setup_s = setups.Finish(report);

  std::vector<double> tables_per_s, table_ms, step_ms;
  int64_t steps = 0, failed = 0;
  bool identical = true, finite = true;
  for (const TrainRun& r : runs) {
    tables_per_s.push_back(double(kTrainTables) / r.seconds);
    table_ms.push_back(r.seconds * 1e3 / double(kTrainTables));
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
    steps += r.steps;
    failed += r.failed_steps;
    finite = finite && std::isfinite(r.loss);
    identical = identical &&
                std::memcmp(&r.loss, &runs[0].loss, sizeof(double)) == 0;
  }
  report->Count(steps, failed);
  report->Gate("pretrain.loss_finite", finite, "loss " + Bits(runs[0].loss));
  report->Gate("pretrain.loss_bit_identical", identical,
               std::to_string(runs.size()) + " repetitions");
  report->Gate("pretrain.step_events", int64_t(step_ms.size()) == steps,
               std::to_string(step_ms.size()) + " step events for " +
                   std::to_string(steps) + " steps");

  std::string rep_rates;
  for (double r : tables_per_s) rep_rates += Fixed(r);
  report->Line("repetitions (tables/s):%s", rep_rates.c_str());
  const double throughput = Median(tables_per_s);
  report->Line("pretrain_tables_per_s %.3f tables/s (median of %zu "
               "repetitions of %d tables)",
               throughput, runs.size(), kTrainTables);
  report->Line("pretrain_loss %.6f nats (final loss at the fixed seed)",
               runs[0].loss);
  report->Line("step latency: %s", LatencySummary(step_ms).c_str());

  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("throughput_per_s", throughput, "1/s");
  report->EndToEnd("latency_p50_ms", Percentile(step_ms, 50), "ms");
  report->EndToEnd("latency_p95_ms", Percentile(step_ms, 95), "ms");
  if (!options.trace) return;

  // Replay i ran right after untraced repetition i, so each pair shares the
  // machine's state; the layer-sum check uses the median paired ratio.
  bool replay_matches = true;
  std::vector<double> masking, encode_fwd, heads_fwd, backward, optim,
      sum_over_untraced, overhead;
  for (size_t i = 0; i < replays.size(); ++i) {
    const ReplayRun& r = replays[i];
    replay_matches = replay_matches &&
                     std::memcmp(&r.loss, &runs[0].loss, sizeof(double)) == 0;
    const double n = double(kTrainTables);
    masking.push_back(r.ms.masking / n);
    encode_fwd.push_back(r.ms.encode_fwd / n);
    heads_fwd.push_back(r.ms.heads_fwd / n);
    backward.push_back(r.ms.backward / n);
    optim.push_back(r.ms.optim / n);
    const double sum = (r.ms.masking + r.ms.encode_fwd + r.ms.heads_fwd +
                        r.ms.backward + r.ms.optim) / n;
    sum_over_untraced.push_back(sum / table_ms[i]);
    overhead.push_back(r.seconds * 1e3 / n - table_ms[i]);
  }
  report->Gate("pretrain.replay_reproduces_train", replay_matches,
               "replay loss " + Bits(replays[0].loss));
  const double unattributed = 1.0 - Median(sum_over_untraced);
  report->Line("layer sum / untraced Train time per table: median %.4f over "
               "%zu pairs (unattributed share %.4f, bound %.2f)",
               Median(sum_over_untraced), replays.size(), unattributed,
               kLayerSumBound);
  if (std::fabs(unattributed) > kLayerSumBound) {
    // The replay no longer accounts for Train's time: its layer figures
    // would mislead, so the run gives no result.
    std::fprintf(stderr, "turlbench: layer sum is %.4f of the untraced time "
                 "per table, outside 1 +- %.2f\n",
                 Median(sum_over_untraced), kLayerSumBound);
    std::exit(3);
  }

  report->Layer("core.masking_ms", Median(masking), "ms");
  report->Layer("core.encode_fwd_ms", Median(encode_fwd), "ms");
  report->Layer("core.heads_fwd_ms", Median(heads_fwd), "ms");
  report->Layer("nn.backward_ms", Median(backward), "ms");
  report->Layer("nn.optim_ms", Median(optim), "ms");
  report->Layer("pretrain.unattributed_share", unattributed, "ratio");
  report->Layer("trace.overhead_ms", Median(overhead), "ms");

  // Inference forward, one thread, on the same tables.
  auto model = FreshModel(state->ctx);
  double forward_ms = 0.0;
  for (const EncodedTable& t : inputs) {
    Span span(&forward_ms);
    (void)model->Encode(t, /*training=*/false);
  }
  report->Layer("core.model.forward_ms", forward_ms / double(inputs.size()),
                "ms");
  ProbeKernels(int64_t(std::lround(elems.median)), state->ctx.vocab.size(),
               report);
}

}  // namespace turlbench
