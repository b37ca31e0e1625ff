// Lifecycle tests for the serving front-end, on real loopback sockets:
// round-trip correctness against the session oracle, multi-replica fan-out
// under concurrent clients, request- and connection-level shedding with
// OVERLOADED, wire-deadline enforcement, malformed frames failing the
// connection without hurting the server, readiness probe coverage, the
// graceful drain completing in-flight requests, and continuous batching (an
// idle replica dispatches at once; a burst batches what queued meanwhile).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "gtest/gtest.h"
#include "obs/eventlog.h"
#include "obs/server/handlers.h"
#include "rt/inference_session.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace turl {
namespace serve {
namespace {

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig SmallConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

const core::TurlModel& Model() {
  static core::TurlModel* model =
      new core::TurlModel(SmallConfig(), Ctx().vocab.size(),
                          Ctx().entity_vocab.size(), /*seed=*/11);
  return *model;
}

/// The determinism oracle: EncodeBatch(tables)[i] is bit-identical to
/// Encode(tables[i]) regardless of batch composition, so a single-threaded
/// reference session predicts every server reply exactly.
const rt::InferenceSession& Oracle() {
  static rt::InferenceSession* session = new rt::InferenceSession(
      Model(), rt::SessionOptions{.num_threads = 1});
  return *session;
}

std::vector<core::EncodedTable> SomeTables(size_t n) {
  std::vector<core::EncodedTable> out;
  const text::WordPieceTokenizer tokenizer = Ctx().MakeTokenizer();
  for (size_t idx : Ctx().corpus.valid) {
    core::EncodedTable t = core::EncodeTable(Ctx().corpus.tables[idx],
                                             tokenizer, Ctx().entity_vocab);
    if (t.total() > 0) out.push_back(std::move(t));
    if (out.size() >= n) break;
  }
  return out;
}

ServeOptions FastOptions() {
  ServeOptions options;
  options.port = 0;
  options.num_replicas = 1;
  options.session.num_threads = 1;
  return options;
}

/// Opens `num_clients` connections, starts them together, and has each make
/// `calls` encode calls. Returns, per client, the calls that failed, came
/// back with another status or id, or differ from the oracle.
std::vector<int> ConcurrentCalls(const ServeServer& server,
                                 const std::vector<core::EncodedTable>& tables,
                                 int num_clients, int calls) {
  std::vector<int> failures(size_t(num_clients), 0);
  std::atomic<int> connected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      const bool ok = client.Connect("127.0.0.1", server.port()).ok();
      connected.fetch_add(1);
      while (connected.load() < num_clients) std::this_thread::yield();
      if (!ok) {
        failures[size_t(c)] = calls;
        return;
      }
      for (int call = 0; call < calls; ++call) {
        const size_t t = size_t(c + call) % tables.size();
        const uint64_t id = uint64_t(c) * 100 + call;
        WireResponse response;
        if (!client.Call(tables[t], rt::TaskKind::kEncode, id, &response)
                 .ok() ||
            response.status != rt::ResponseStatus::kOk ||
            response.request_id != id ||
            response.hidden != Oracle().Encode(tables[t]).ToVector()) {
          ++failures[size_t(c)];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return failures;
}

TEST(ServeServerTest, StartStopLifecycle) {
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.num_replicas(), 1);
  EXPECT_FALSE(server.Start().ok());  // Already running.
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.

  // Restartable, on a fresh ephemeral port.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(ServeServerTest, RoundtripMatchesSessionEncode) {
  const std::vector<core::EncodedTable> tables = SomeTables(5);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < tables.size(); ++i) {
    WireResponse response;
    ASSERT_TRUE(client
                    .Call(tables[i], rt::TaskKind::kEncode,
                          /*request_id=*/1000 + i, &response)
                    .ok());
    ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
    EXPECT_EQ(response.request_id, 1000 + i);
    const nn::Tensor expected = Oracle().Encode(tables[i]);
    EXPECT_EQ(response.rows, expected.dim(0));
    EXPECT_EQ(response.cols, expected.dim(1));
    EXPECT_EQ(response.hidden, expected.ToVector()) << "table " << i;
  }
  client.Close();
  server.Stop();
}

TEST(ServeServerTest, MultiReplicaConcurrentClients) {
  const std::vector<core::EncodedTable> tables = SomeTables(6);
  ASSERT_GE(tables.size(), 2u);
  ServeOptions options = FastOptions();
  options.num_replicas = 2;
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.num_replicas(), 2);

  const std::vector<int> failures =
      ConcurrentCalls(server, tables, /*num_clients=*/4, /*calls=*/3);
  for (size_t c = 0; c < failures.size(); ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_EQ(server.inflight(), 0);
  server.Stop();
}

TEST(ServeServerTest, RequestShedWithOverloadedAtInflightCap) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeOptions options = FastOptions();
  options.max_inflight_requests = 0;  // Admission always sheds.
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 1, &response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_TRUE(response.hidden.empty());

  // Shedding a request keeps the connection alive: the client can back off
  // and retry on the same socket (and is shed again, deterministically).
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 2, &response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_EQ(response.request_id, 2u);
  server.Stop();
}

TEST(ServeServerTest, ConnectionShedWithOverloadedAtQueueCap) {
  ServeOptions options = FastOptions();
  options.num_io_workers = 1;
  options.max_queued_connections = 1;
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  // First connection occupies the lone worker; second fills the queue.
  ServeClient held, queued;
  ASSERT_TRUE(held.Connect("127.0.0.1", server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(queued.Connect("127.0.0.1", server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Third connection: the accept loop sheds it with an OVERLOADED frame and
  // closes — the wire analogue of the obs server's 503.
  ServeClient shed;
  ASSERT_TRUE(shed.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(shed.ReadResponse(&response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_NE(response.message.find("connection queue"), std::string::npos);
  server.Stop();
}

TEST(ServeServerTest, ZeroWireDeadlineIsExpiredOnArrival) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(client
                  .Call(tables[0], rt::TaskKind::kEncode, 5, &response,
                        /*deadline_ms=*/0)
                  .ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_TRUE(response.hidden.empty());

  // A generous deadline on the same connection still succeeds.
  ASSERT_TRUE(client
                  .Call(tables[0], rt::TaskKind::kEncode, 6, &response,
                        /*deadline_ms=*/60000)
                  .ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOk);
  server.Stop();
}

TEST(ServeServerTest, MalformedFramesFailTheConnectionNotTheServer) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  {
    // Bad magic: the server answers kBadRequest, then closes.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string garbage(kRequestHeaderBytes, 'Z');
    ASSERT_TRUE(client.SendRaw(garbage).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_FALSE(client.ReadResponse(&response).ok());  // Closed.
  }
  {
    // Oversized length prefix: rejected before the claimed payload is ever
    // allocated, as kBadRequest.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 7);
    const uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(frame.data() + 20, &huge, sizeof(huge));
    ASSERT_TRUE(client.SendRaw(frame.substr(0, kRequestHeaderBytes)).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_NE(response.message.find("exceeds cap"), std::string::npos);
  }
  {
    // Unknown task id.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 8);
    frame[6] = 42;
    ASSERT_TRUE(client.SendRaw(frame).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_NE(response.message.find("task"), std::string::npos);
  }
  {
    // Truncated frame: half a header, then hang up. Nothing to answer; the
    // server must just drop the connection.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.SendRaw(std::string(kRequestHeaderBytes / 2, 'A')).ok());
    client.Close();
  }
  {
    // Corrupt payload (bad inner counts): kBadRequest, connection closed.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 9);
    // Overwrite the num_tokens count inside the payload with a huge claim.
    const uint32_t hostile = 1u << 30;
    std::memcpy(frame.data() + kRequestHeaderBytes, &hostile, sizeof(hostile));
    ASSERT_TRUE(client.SendRaw(frame).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
  }

  // After all that abuse, a clean client still gets a correct answer.
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 10, &response).ok());
  ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
  EXPECT_EQ(response.hidden, Oracle().Encode(tables[0]).ToVector());
  server.Stop();
}

TEST(ServeServerTest, ReadinessProbeTracksLifecycle) {
  auto probe_state = [](const char* name, bool* found, bool* ok) {
    *found = false;
    *ok = false;
    for (const auto& r : obs::server::HealthRegistry::Get().RunAll()) {
      if (r.name == name) {
        *found = true;
        *ok = r.ok;
      }
    }
  };
  bool found = false, ok = false;
  probe_state("serve.listener", &found, &ok);
  EXPECT_FALSE(found);

  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  probe_state("serve.listener", &found, &ok);
  EXPECT_TRUE(found);
  EXPECT_TRUE(ok);

  server.Stop();
  probe_state("serve.listener", &found, &ok);
  EXPECT_FALSE(found);
}

TEST(ServeServerTest, LoneRequestIsDispatchedWithoutAnAgeFlush) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeOptions options = FastOptions();
  // An age flush would park a lone request for an hour (past the client's
  // read timeout); an idle replica must run it at once.
  options.batch.max_age_ms = 3600.0 * 1000.0;
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (uint64_t id = 1; id <= 3; ++id) {
    const auto start = std::chrono::steady_clock::now();
    WireResponse response;
    ASSERT_TRUE(
        client.Call(tables[0], rt::TaskKind::kEncode, id, &response).ok());
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
    EXPECT_EQ(response.hidden, Oracle().Encode(tables[0]).ToVector());
    EXPECT_LT(ms, 1000.0) << "request " << id;
  }
  server.Stop();
}

TEST(ServeServerTest, BurstOnOneReplicaBatchesWhatQueuedMeanwhile) {
  obs::EventLog::Get().Reset();
  obs::EventLog::SetEnabled(true);
  const std::vector<core::EncodedTable> tables = SomeTables(8);
  ASSERT_GE(tables.size(), 2u);
  // One replica with one session thread: while it encodes a batch, the
  // other connections' requests queue behind it.
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 10;
  const std::vector<int> failures =
      ConcurrentCalls(server, tables, kClients, kCallsPerClient);
  server.Stop();
  for (size_t c = 0; c < failures.size(); ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  int32_t max_batch = 0;
  size_t served = 0;
  for (const obs::WideEvent& e : obs::EventLog::Get().Snapshot()) {
    if (std::strcmp(e.origin, "serve") != 0) continue;
    ++served;
    max_batch = std::max(max_batch, e.batch_size);
  }
  EXPECT_EQ(served, size_t(kClients * kCallsPerClient));
  EXPECT_GT(max_batch, 1);
  obs::EventLog::SetEnabled(false);
  obs::EventLog::Get().Reset();
}

TEST(ServeServerTest, GracefulDrainCompletesInflightRequests) {
  // A wider, deeper model than Model() keeps one forward in flight long
  // enough for Stop() to land while the request is being served.
  core::TurlConfig config = SmallConfig();
  config.num_layers = 4;
  config.d_model = 256;
  config.d_intermediate = 1024;
  config.num_heads = 4;
  const core::TurlModel model(config, Ctx().vocab.size(),
                              Ctx().entity_vocab.size(), /*seed=*/11);
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeOptions options = FastOptions();
  // Slow (sanitizer) builds must not reach the hard deadline.
  options.drain_deadline_ms = 60000;
  ServeServer server(model, options);
  ASSERT_TRUE(server.Start().ok());

  WireResponse response;
  Status call_status = Status::Internal("not run");
  std::thread client_thread([&] {
    ServeClient client;
    const Status c = client.Connect("127.0.0.1", server.port(),
                                    /*timeout_ms=*/60000);
    if (!c.ok()) {
      call_status = c;
      return;
    }
    call_status = client.Call(tables[0], rt::TaskKind::kEncode, 77, &response);
  });
  // Stop the server under the request once it is admitted and unanswered.
  bool stopped_inflight = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < give_up) {
    if (server.inflight() > 0) {
      stopped_inflight = true;
      break;
    }
    std::this_thread::yield();
  }
  server.Stop();
  client_thread.join();

  // The drain completed the admitted request instead of dropping it.
  EXPECT_TRUE(stopped_inflight);
  ASSERT_TRUE(call_status.ok()) << call_status.ToString();
  ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
  EXPECT_EQ(response.request_id, 77u);
  EXPECT_EQ(response.hidden, model.Encode(tables[0], /*training=*/false)
                                 .ToVector());
}

}  // namespace
}  // namespace serve
}  // namespace turl
