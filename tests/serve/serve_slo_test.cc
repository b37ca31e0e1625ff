// End-to-end SLO plane through the serving front-end: real wire traffic
// must produce serve-origin wide events whose stage timings and byte counts
// are sane, SLI windows that agree with the observed outcomes, default
// `slo.serve.*` readiness probes for the server's lifetime, and — under
// injected deadline pressure against a zero-tolerance custom target — a
// burn that flips readiness within one evaluation (labels: serve, slo).

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
#include "obs/slo.h"
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

/// Wide events land just after the reply hits the wire, so a client that
/// returned may be a hair ahead of the log — poll briefly.
std::vector<obs::WideEvent> WaitForEvents(size_t n) {
  for (int i = 0; i < 200; ++i) {
    std::vector<obs::WideEvent> events = obs::EventLog::Get().Snapshot();
    if (events.size() >= n) return events;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return obs::EventLog::Get().Snapshot();
}

bool ProbeState(const char* name, bool* ok, std::string* detail) {
  for (const auto& r : obs::server::HealthRegistry::Get().RunAll()) {
    if (r.name == name) {
      *ok = r.ok;
      if (detail != nullptr) *detail = r.detail;
      return true;
    }
  }
  return false;
}

TEST(ServeSloTest, OkTrafficEmitsWideEventsAndAgreesWithSliWindow) {
  obs::SliEngine::Get().Reset();
  obs::SliEngine::SetEnabled(true);
  obs::EventLog::Get().Reset();
  obs::EventLog::SetEnabled(true);

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
                          /*request_id=*/500 + i, &response)
                    .ok());
    ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
  }
  client.Close();

  const std::vector<obs::WideEvent> events = WaitForEvents(tables.size());
  ASSERT_EQ(events.size(), tables.size());
  for (const obs::WideEvent& e : events) {
    // Serve owns the event (caller_owns_event): exactly one record per
    // request, origin "serve", never a duplicate from the scheduler.
    EXPECT_STREQ(e.origin, "serve");
    EXPECT_STREQ(e.task, "encode");
    EXPECT_STREQ(e.status, "ok");
    EXPECT_GE(e.request_id, 500u);
    EXPECT_GE(e.replica, 0);
    EXPECT_GT(e.bytes_in, int64_t{0});
    EXPECT_GT(e.bytes_out, int64_t{0});
    EXPECT_GT(e.total_us, 0.0);
    EXPECT_GT(e.batch_size, 0);
    // Stage timings are parts of the whole.
    EXPECT_LE(e.queue_wait_us, e.total_us);
    EXPECT_LE(e.encode_us, e.total_us);
  }

  // The SLI window agrees with what the client observed: five ok outcomes.
  const obs::SliSnapshot s = obs::SliEngine::Get().Snapshot("encode", 10);
  EXPECT_EQ(s.total, int64_t(tables.size()));
  EXPECT_EQ(s.ok, int64_t(tables.size()));
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
  EXPECT_EQ(s.deadline_miss, 0);
  EXPECT_GT(s.p99_ms, 0.0);
  EXPECT_LE(s.p99_ms, s.max_ms);
  // The aggregate stream saw the same traffic.
  EXPECT_GE(obs::SliEngine::Get().Snapshot(obs::SliEngine::kAllStream, 10).total,
            int64_t(tables.size()));

  server.Stop();
  obs::SliEngine::Get().Reset();
  obs::EventLog::Get().Reset();
}

TEST(ServeSloTest, DefaultSloProbesTrackServerLifetime) {
  bool ok = false;
  EXPECT_FALSE(ProbeState("slo.serve.availability", &ok, nullptr));
  EXPECT_FALSE(ProbeState("slo.serve.deadline", &ok, nullptr));

  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  std::string detail;
  ASSERT_TRUE(ProbeState("slo.serve.availability", &ok, &detail));
  EXPECT_TRUE(ok);  // No traffic: vacuous pass under min_requests.
  EXPECT_NE(detail.find("idle"), std::string::npos);
  ASSERT_TRUE(ProbeState("slo.serve.deadline", &ok, nullptr));
  EXPECT_TRUE(ok);

  server.Stop();
  EXPECT_FALSE(ProbeState("slo.serve.availability", &ok, nullptr));
  EXPECT_FALSE(ProbeState("slo.serve.deadline", &ok, nullptr));
}

TEST(ServeSloTest, DeadlinePressureBurnsCustomTargetWithinOneEvaluation) {
  obs::SliEngine::Get().Reset();
  obs::SliEngine::SetEnabled(true);

  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeOptions options = FastOptions();
  obs::SloTarget target;  // Zero tolerance: one miss burns.
  target.name = "serve_test.deadline";
  target.stream = "encode";
  target.horizon_s = 10;
  target.min_requests = 1;
  target.max_deadline_miss_rate = 0.0;
  options.slo_targets.push_back(target);
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  bool ok = false;
  ASSERT_TRUE(ProbeState("slo.serve_test.deadline", &ok, nullptr));
  EXPECT_TRUE(ok);

  // Deadline 0 expires on arrival: the server answers kDeadlineExceeded and
  // records a deadline miss on the "encode" stream.
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(client
                  .Call(tables[0], rt::TaskKind::kEncode, 9, &response,
                        /*deadline_ms=*/0)
                  .ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kDeadlineExceeded);
  client.Close();

  // One probe evaluation — no watchdog-tick wait — sees the burn.
  std::string detail;
  ASSERT_TRUE(ProbeState("slo.serve_test.deadline", &ok, &detail));
  EXPECT_FALSE(ok) << detail;
  EXPECT_NE(detail.find("deadline_miss_rate"), std::string::npos);

  // The scrape latched the burn in the global watchdog.
  bool burning = false;
  for (const auto& burn : obs::SloWatchdog::Get().ActiveBurns()) {
    burning = burning || burn.name == "slo.serve_test.deadline";
  }
  EXPECT_TRUE(burning);

  server.Stop();
  // Stop removed the custom target with the defaults.
  EXPECT_FALSE(ProbeState("slo.serve_test.deadline", &ok, nullptr));
  EXPECT_TRUE(obs::SloWatchdog::Get().ActiveBurns().empty());
  obs::SliEngine::Get().Reset();
}

}  // namespace
}  // namespace serve
}  // namespace turl
