// serve: an in-process serve::ServeServer with default options on an
// ephemeral loopback port, answering kEncode requests for held-out tables
// sampled by seed. One process drives it through 4 connections in two
// phases: an open loop of Poisson arrivals at 50 req/s, each request timed
// from when it was due, then a closed loop in which each connection sends
// as soon as its previous reply arrived. Every kOk reply must equal the
// in-process TurlModel::Encode of its table, bit for bit.
//
// The traced run repeats the open loop with client-side spans around
// ServeClient::Call and the protocol calls, then feeds the same arrival
// schedule into an in-process rt::BatchScheduler (default options, default
// InferenceSession, pumped at the server's default cadence) whose
// rt::Response fields split the server-side time into queue wait, batch
// assembly and batch encode.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "core/model.h"
#include "core/table_encoding.h"
#include "nn/kernels/threading.h"
#include "rt/batch_scheduler.h"
#include "rt/inference_session.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace turlbench {
namespace {

using turl::core::EncodedTable;

constexpr double kOpenLoopRate = 50.0;  // Requests per second.
constexpr int kConnections = 4;
/// Share of the run spent in the open loop; the closed loop gets the rest.
constexpr double kOpenLoopShare = 0.8;
constexpr uint64_t kModelSeed = 11;

struct State {
  turl::core::TurlContext ctx;
  std::vector<EncodedTable> tables;  // The held-out (valid + test) tables.
  std::unique_ptr<turl::core::TurlModel> model;
  std::unique_ptr<turl::serve::ServeServer> server;

  ~State() {
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<State> MakeState() {
  auto state = std::make_unique<State>();
  state->ctx = BuildCorpus();
  const turl::text::WordPieceTokenizer tokenizer = state->ctx.MakeTokenizer();
  std::vector<size_t> held_out = state->ctx.corpus.valid;
  held_out.insert(held_out.end(), state->ctx.corpus.test.begin(),
                  state->ctx.corpus.test.end());
  for (size_t idx : held_out) {
    state->tables.push_back(turl::core::EncodeTable(
        state->ctx.corpus.tables[idx], tokenizer, state->ctx.entity_vocab));
  }
  state->model = std::make_unique<turl::core::TurlModel>(
      turl::core::TurlConfig{}, state->ctx.vocab.size(),
      state->ctx.entity_vocab.size(), kModelSeed);
  state->server = std::make_unique<turl::serve::ServeServer>(
      *state->model, turl::serve::ServeOptions{});
  if (!state->server->Start().ok()) state->server.reset();
  return state;
}

/// Which held-out table each request carries: uniform with replacement.
std::vector<size_t> SampleTables(uint64_t seed, size_t n, size_t population) {
  turl::Rng rng(seed);
  std::vector<size_t> out(n);
  for (size_t& t : out) t = size_t(rng.Uniform(population));
  return out;
}

/// One connection per load-generator worker.
class Connections {
 public:
  Connections(int port, int n) : port_(port), clients_(size_t(n)) {
    for (auto& c : clients_) c = std::make_unique<turl::serve::ServeClient>();
  }

  /// Calls on worker w's connection, reconnecting first if it died.
  turl::Status Call(int w, const EncodedTable& table, uint64_t id,
                    turl::serve::WireResponse* out) {
    turl::serve::ServeClient& client = *clients_[size_t(w)];
    if (!client.connected()) {
      const turl::Status s = client.Connect("127.0.0.1", port_);
      if (!s.ok()) return s;
    }
    const turl::Status s =
        client.Call(table, turl::rt::TaskKind::kEncode, id, out);
    if (!s.ok()) client.Close();
    return s;
  }

 private:
  int port_;
  std::vector<std::unique_ptr<turl::serve::ServeClient>> clients_;
};

/// Checks kOk replies against the in-process encoding of the same table.
class Oracle {
 public:
  Oracle(const turl::core::TurlModel& model,
         const std::vector<EncodedTable>& tables) {
    const Clock::time_point start = Clock::now();
    for (const EncodedTable& t : tables) {
      reference_.push_back(model.Encode(t, /*training=*/false).ToVector());
    }
    forward_ms_ = MsBetween(start, Clock::now()) / double(tables.size());
  }

  bool Matches(size_t table, const turl::serve::WireResponse& reply) {
    const std::vector<float>& ref = reference_[table];
    const bool ok =
        reply.hidden.size() == ref.size() &&
        std::memcmp(reply.hidden.data(), ref.data(),
                    ref.size() * sizeof(float)) == 0;
    if (!ok) mismatches_.fetch_add(1);
    checked_.fetch_add(1);
    return ok;
  }

  int64_t mismatches() const { return mismatches_.load(); }
  int64_t checked() const { return checked_.load(); }
  /// Single-thread inference forward per table while building the oracle.
  double forward_ms() const { return forward_ms_; }

 private:
  std::vector<std::vector<float>> reference_;
  std::atomic<int64_t> mismatches_{0};
  std::atomic<int64_t> checked_{0};
  double forward_ms_ = 0.0;
};

/// Per-request client-side spans of the traced open loop.
struct ClientSpans {
  std::vector<double> roundtrip_ms;
  std::vector<double> protocol_us;
};

OpenLoopResult OpenLoop(State* state, Oracle* oracle,
                        const std::vector<double>& due,
                        const std::vector<size_t>& table_of,
                        ClientSpans* spans) {
  Connections conns(state->server->port(), kConnections);
  if (spans != nullptr) {
    spans->roundtrip_ms.assign(due.size(), 0.0);
    spans->protocol_us.assign(due.size(), 0.0);
  }
  return RunOpenLoop(due, kConnections, [&](int w, size_t i) {
    const EncodedTable& table = state->tables[table_of[i]];
    turl::serve::WireResponse reply;
    const Clock::time_point t0 = Clock::now();
    const turl::Status s = conns.Call(w, table, i, &reply);
    const Clock::time_point t1 = Clock::now();
    if (!s.ok()) return Outcome::kTransport;
    if (spans != nullptr) {
      // The protocol layer's share, timed on the same table and reply.
      spans->roundtrip_ms[i] = MsBetween(t0, t1);
      double ms = 0.0;
      {
        Span span(&ms);
        (void)turl::serve::EncodeRequestFrame(table,
                                              turl::rt::TaskKind::kEncode, i);
      }
      const std::string frame = turl::serve::EncodeResponseFrame(reply);
      turl::serve::WireResponse decoded;
      decoded.status = reply.status;
      {
        Span span(&ms);
        (void)turl::serve::DecodeResponsePayload(
            reinterpret_cast<const uint8_t*>(frame.data()) +
                turl::serve::kResponseHeaderBytes,
            frame.size() - turl::serve::kResponseHeaderBytes, &decoded);
      }
      spans->protocol_us[i] = ms * 1e3;
    }
    const Outcome o = OutcomeOf(reply.status);
    if (o == Outcome::kOk && !oracle->Matches(table_of[i], reply)) {
      return Outcome::kOtherError;
    }
    return o;
  });
}

/// Server-side split from the scheduler's own Response fields.
struct SchedulerSplit {
  std::vector<double> queue_wait_ms, assembly_ms, encode_ms;
  std::vector<double> batch_size;
  int64_t not_ok = 0;
};

/// Feeds the arrival schedule into one in-process BatchScheduler over a
/// default InferenceSession, pumped like the server pumps its replicas.
SchedulerSplit ReplayScheduler(const State& state,
                               const std::vector<double>& due,
                               const std::vector<size_t>& table_of) {
  turl::rt::InferenceSession session(*state.model);
  turl::rt::BatchScheduler scheduler(&session);
  const int pump_ms = turl::serve::ServeOptions{}.pump_interval_ms;
  std::mutex mu;  // Serializes Submit/Pump/Flush, as each replica does.
  std::condition_variable all_done;
  SchedulerSplit split;
  size_t done = 0;
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      {
        std::lock_guard<std::mutex> lock(mu);
        scheduler.Pump();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(pump_ms));
    }
  });
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i])));
    turl::rt::Request request;
    request.table = &state.tables[table_of[i]];
    request.request_id = i;
    // Runs on the flushing thread, which holds `mu`.
    request.done = [&](turl::rt::Response r) {
      if (r.status != turl::rt::ResponseStatus::kOk) ++split.not_ok;
      split.queue_wait_ms.push_back(r.queue_wait_ms);
      split.assembly_ms.push_back(r.assembly_ms);
      split.encode_ms.push_back(r.encode_ms);
      split.batch_size.push_back(r.batch_size);
      ++done;
      all_done.notify_all();
    };
    std::lock_guard<std::mutex> lock(mu);
    scheduler.Submit(std::move(request));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return done == due.size(); });
  }
  stop.store(true);
  pump.join();
  return split;
}

std::string Tally(const PhaseTally& t) {
  return std::to_string(t.attempted) + " attempted, " +
         std::to_string(t.failed()) + " failed (shed " +
         std::to_string(t.shed) + ", deadline " + std::to_string(t.deadline) +
         ", transport " + std::to_string(t.transport) + ", other " +
         std::to_string(t.other) + ")";
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  Setups<State> setups(kSetups, MakeState);
  const std::unique_ptr<State> state = setups.Build();
  report->Gate("serve.server_started", state->server != nullptr,
               "ephemeral loopback port");
  if (state->server == nullptr) return;

  const size_t n_open =
      size_t(std::lround(kOpenLoopRate * kOpenLoopShare * options.seconds));
  const double closed_s = options.seconds * (1.0 - kOpenLoopShare);
  turl::Rng seeds(options.seed);
  const std::vector<double> due =
      PoissonSchedule(seeds.Next(), kOpenLoopRate, n_open);
  const std::vector<size_t> open_tables =
      SampleTables(seeds.Next(), n_open, state->tables.size());
  // Far more than a closed loop can send in the run; indices wrap.
  const std::vector<size_t> closed_tables =
      SampleTables(seeds.Next(), 1 << 16, state->tables.size());

  Oracle oracle(*state->model, state->tables);
  {
    turl::rt::InferenceSession probe(*state->model);
    report->Line("threads: %d serve replicas x %d session threads, %d kernel "
                 "threads, %d load-generator connections",
                 state->server->num_replicas(), probe.num_threads(),
                 turl::nn::kernels::KernelThreads(), kConnections);
  }

  const OpenLoopResult open =
      OpenLoop(state.get(), &oracle, due, open_tables, nullptr);
  // Half the remaining set-ups between the phases, the rest at the end.
  for (int i = 0; i < kSetups / 2; ++i) setups.Spread();
  ClosedLoopResult closed;
  if (!options.trace) {
    Connections conns(state->server->port(), kConnections);
    closed = RunClosedLoop(kConnections, closed_s, [&](int w, size_t i) {
      const size_t table = closed_tables[i % closed_tables.size()];
      turl::serve::WireResponse reply;
      if (!conns.Call(w, state->tables[table], i, &reply).ok()) {
        return Outcome::kTransport;
      }
      const Outcome o = OutcomeOf(reply.status);
      if (o == Outcome::kOk && !oracle.Matches(table, reply)) {
        return Outcome::kOtherError;
      }
      return o;
    });
  }

  const double setup_s = setups.Finish(report);

  // Input properties of what was actually sent.
  std::vector<std::string> keys;
  for (size_t t : open_tables) keys.push_back(InputKey(state->tables[t]));
  for (size_t i = 0; i < size_t(closed.tally.attempted); ++i) {
    keys.push_back(InputKey(state->tables[closed_tables[i]]));
  }
  const ElementStats elems = ElementsOf(state->tables);
  report->Line("inputs: %zu held-out tables, elements per table min %d / "
               "median %.1f / max %d; %zu requests, repeat share %.3f",
               state->tables.size(), elems.min, elems.median, elems.max,
               keys.size(), RepeatShare(keys));

  report->Count(open.tally.attempted + closed.tally.attempted,
                open.tally.failed() + closed.tally.failed());
  report->Line("open loop  (Poisson %.0f req/s, %d connections, %.1f s): %s",
               kOpenLoopRate, kConnections, open.elapsed_s,
               Tally(open.tally).c_str());
  if (!options.trace) {
    report->Line("closed loop (%d connections, %.1f s): %s", kConnections,
                 closed.elapsed_s, Tally(closed.tally).c_str());
  }
  report->Gate("serve.replies_equal_in_process_encode",
               oracle.mismatches() == 0,
               std::to_string(oracle.checked()) + " kOk replies compared");

  const double p50 = Percentile(open.latency_ms, 50);
  report->Line("serve_p50_ms %.4f ms, serve_p99_ms %.4f ms", p50,
               Percentile(open.latency_ms, 99));
  report->Line("latency from due time, open loop: %s",
               LatencySummary(open.latency_ms).c_str());
  report->Line("open loop achieved %.2f req/s; generator late p99 %.3f ms",
               double(open.tally.attempted) / open.elapsed_s,
               Percentile(open.late_ms, 99));
  if (!options.trace) {
    report->Line("serve_saturation_rps %.3f ok replies/s (closed loop)",
                 closed.ok_per_s);
  }

  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("throughput_per_s", closed.ok_per_s, "1/s");
  report->EndToEnd("latency_p50_ms", p50, "ms");
  report->EndToEnd("latency_p95_ms", Percentile(open.latency_ms, 95), "ms");
  if (!options.trace) return;

  ClientSpans spans;
  const OpenLoopResult traced =
      OpenLoop(state.get(), &oracle, due, open_tables, &spans);
  report->Count(traced.tally.attempted, traced.tally.failed());
  report->Gate("serve.traced_replies_equal_in_process_encode",
               oracle.mismatches() == 0,
               std::to_string(oracle.checked()) + " kOk replies compared");
  const SchedulerSplit split = ReplayScheduler(*state, due, open_tables);
  report->Gate("serve.scheduler_replay_all_ok", split.not_ok == 0,
               std::to_string(split.queue_wait_ms.size()) + " requests");

  const double roundtrip = Median(spans.roundtrip_ms);
  const double protocol_us = Median(spans.protocol_us);
  const double queue = Median(split.queue_wait_ms);
  const double assembly = Median(split.assembly_ms);
  const double encode = Median(split.encode_ms);
  report->Line("server split (scheduler replay, medians): queue %.3f ms + "
               "assembly %.4f ms + batch encode %.3f ms; protocol %.2f us; "
               "round trip %.3f ms",
               queue, assembly, encode, protocol_us, roundtrip);

  report->Layer("rt.queue_wait_ms.p50", queue, "ms");
  report->Layer("rt.queue_wait_ms.p99", Percentile(split.queue_wait_ms, 99),
                "ms");
  report->Layer("rt.batch_size", MeanBatchSize(split.batch_size), "count");
  report->Layer("rt.batch_encode_ms", encode, "ms");
  report->Layer("serve.roundtrip_ms", roundtrip, "ms");
  report->Layer("serve.protocol_us", protocol_us, "us");
  report->Layer("serve.unattributed_ms",
                roundtrip - (queue + assembly + encode + protocol_us / 1e3),
                "ms");
  report->Layer("serve.gen_late_ms.p99", Percentile(open.late_ms, 99), "ms");
  report->Layer("core.model.forward_ms", oracle.forward_ms(), "ms");
  report->Layer("trace.overhead_ms",
                Percentile(traced.latency_ms, 50) - p50, "ms");
  ProbeKernels(int64_t(std::lround(elems.median)), state->ctx.vocab.size(),
               report);
}

}  // namespace turlbench
