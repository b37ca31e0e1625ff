#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/server/http.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace serve {

namespace {

obs::Counter* AcceptedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.accepted");
  return c;
}

obs::Counter* RequestCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.requests");
  return c;
}

obs::Counter* ShedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Get().GetCounter("serve.shed");
  return c;
}

obs::Counter* DeadlineMissedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.deadline_missed");
  return c;
}

obs::Counter* BadFrameCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("serve.bad_frames");
  return c;
}

obs::Gauge* InflightGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Get().GetGauge("serve.inflight");
  return g;
}

/// Per-task end-to-end latency (frame read to reply written), one family
/// per task so a slow ranking head cannot hide inside the encode p99. The
/// registry lookup is mutexed but trivial next to an inference.
obs::Histogram* LatencyHistogram(rt::TaskKind task) {
  return obs::MetricsRegistry::Get().GetHistogram(
      std::string("serve.latency_ms.") + rt::TaskKindName(task));
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

}  // namespace

ServeOptions ServeServer::OptionsFromEnv() {
  ServeOptions options;
  options.port = EnvInt("TURL_SERVE_PORT", 0);
  options.num_replicas = EnvInt("TURL_SERVE_REPLICAS", 2);
  return options;
}

ServeServer::ServeServer(const core::TurlModel& model, ServeOptions options)
    : model_(model), options_(std::move(options)) {
  TURL_CHECK_GE(options_.port, 0);
  if (options_.num_replicas <= 0) {
    options_.num_replicas = EnvInt("TURL_SERVE_REPLICAS", 2);
    if (options_.num_replicas <= 0) options_.num_replicas = 2;
  }
  TURL_CHECK_GT(options_.num_io_workers, 0);
  TURL_CHECK_GT(options_.max_queued_connections, 0);
  TURL_CHECK_GE(options_.max_inflight_requests, 0);
}

ServeServer::~ServeServer() { Stop(); }

Status ServeServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::IoError("bind " + options_.bind_address + ":" +
                                     std::to_string(options_.port) + ": " +
                                     strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    const Status s = Status::IoError("listen: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status s =
        Status::IoError("getsockname: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);

  // Warm the replicas before the listener goes live: session construction
  // builds each replica's thread pool and scratch arenas, so the first
  // request pays inference cost only.
  replicas_.clear();
  for (int i = 0; i < options_.num_replicas; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->session =
        std::make_unique<rt::InferenceSession>(model_, options_.session);
    replica->scheduler = std::make_unique<rt::BatchScheduler>(
        replica->session.get(), options_.batch);
    replica->dispatcher =
        std::thread([this, r = replica.get()] { DispatchLoop(r); });
    replicas_.push_back(std::move(replica));
  }

  stopping_.store(false, std::memory_order_release);
  hard_stop_.store(false, std::memory_order_release);
  exited_workers_ = 0;
  pending_.clear();
  in_flight_fds_.assign(static_cast<size_t>(options_.num_io_workers), -1);
  inflight_.store(0, std::memory_order_relaxed);
  InflightGauge()->Set(0.0);
  running_.store(true, std::memory_order_release);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_io_workers));
  for (int i = 0; i < options_.num_io_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }

  // Readiness flips on only now: listener bound, replicas warm, threads up.
  readiness_.emplace(
      "serve.listener", [this](std::string* detail) {
        const bool ready = running_.load(std::memory_order_acquire) &&
                           !stopping_.load(std::memory_order_acquire);
        *detail = "port=" + std::to_string(port_) +
                  " replicas=" + std::to_string(replicas_.size()) +
                  " inflight=" + std::to_string(inflight());
        return ready;
      });

  // SLO targets live in the global watchdog for this Start/Stop cycle; each
  // is a `slo.<name>` probe on /healthz that burns when its window degrades.
  std::vector<obs::SloTarget> targets = options_.slo_targets;
  if (targets.empty()) {
    obs::SloTarget availability;
    availability.name = "serve.availability";
    availability.horizon_s = 60;
    availability.min_requests = 20;
    availability.min_availability = 0.99;
    targets.push_back(availability);
    obs::SloTarget deadline;
    deadline.name = "serve.deadline";
    deadline.horizon_s = 60;
    deadline.min_requests = 20;
    deadline.max_deadline_miss_rate = 0.05;
    targets.push_back(deadline);
  }
  for (obs::SloTarget& target : targets) {
    slo_target_ids_.push_back(
        obs::SloWatchdog::Get().AddTarget(std::move(target)));
  }
  return Status::OK();
}

void ServeServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // /healthz goes not-ready before the listener dies, so an orchestrator
  // probing readiness stops routing before connections start failing.
  readiness_.reset();
  for (int id : slo_target_ids_) obs::SloWatchdog::Get().RemoveTarget(id);
  slo_target_ids_.clear();

  // 1. Stop accepting. The accept thread polls stopping_ every 100ms.
  stopping_.store(true, std::memory_order_release);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Graceful drain: workers notice stopping_ at their next idle poll,
  // finish the frame in flight (the dispatchers are still alive, so every
  // submitted request gets its response) and exit.
  work_cv_.notify_all();
  bool drained;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained = drained_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drain_deadline_ms), [this] {
          return exited_workers_ == static_cast<int>(workers_.size());
        });
  }

  // 3. Hard deadline: shut down in-flight sockets so blocked reads/writes
  // fail immediately, and tell workers to close the rest unserved.
  if (!drained) {
    hard_stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (int fd : in_flight_fds_) {
        if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
      }
    }
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Anything still queued was never handed to a worker.
  for (int fd : pending_) ::close(fd);
  pending_.clear();

  // Dispatchers stop only after every worker is gone — a worker blocked on
  // its future needs its replica's dispatcher to flush — and each one
  // drains its queue before it exits.
  for (auto& replica : replicas_) {
    {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->stop = true;
    }
    replica->ready.notify_one();
    replica->dispatcher.join();
  }
  replicas_.clear();
  inflight_.store(0, std::memory_order_relaxed);
  InflightGauge()->Set(0.0);
}

void ServeServer::AcceptLoop() {
  // The accept loop doubles as the SLO window tick: about once a second it
  // latches burn edges (and their one-shot telemetry). /healthz stays
  // correct without the tick — probes re-evaluate on every scrape.
  auto next_tick = std::chrono::steady_clock::now();
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_tick) {
      next_tick = now + std::chrono::seconds(1);
      obs::SloWatchdog::Get().Tick();
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;  // Timeout or EINTR — re-check stopping_.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    AcceptedCounter()->Inc();

    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(pending_.size()) >= options_.max_queued_connections) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      // Backpressure at the door: answer OVERLOADED right here rather than
      // queue unboundedly — the serve-protocol analogue of the obs server's
      // 503 path.
      ShedCounter()->Inc();
      WireResponse response;
      response.status = rt::ResponseStatus::kOverloaded;
      response.message = "overloaded: connection queue full";
      const std::string wire = EncodeResponseFrame(response);
      obs::server::WriteAll(fd, wire.data(), wire.size());
      // Half-close, then drain what the client is mid-send on: closing with
      // unread bytes RSTs the connection, which can destroy the OVERLOADED
      // frame before the client reads it. The drain is bounded (bytes and
      // time) so a hostile peer cannot pin the accept thread.
      ::shutdown(fd, SHUT_WR);
      struct timeval tv;
      tv.tv_sec = 0;
      tv.tv_usec = 500 * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      char drain[1024];
      for (int i = 0; i < 64 && ::recv(fd, drain, sizeof(drain), 0) > 0; ++i) {
      }
      ::close(fd);
    } else {
      work_cv_.notify_one();
    }
  }
}

void ServeServer::WorkerLoop(int worker_index) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) break;  // Stopping and fully drained.
      fd = pending_.front();
      pending_.pop_front();
    }
    if (hard_stop_.load(std::memory_order_acquire)) {
      ::close(fd);  // Deadline lapsed: close unserved.
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      in_flight_fds_[static_cast<size_t>(worker_index)] = fd;
    }
    ServeConnection(fd);
    {
      // Clear the slot before close() so the hard-deadline shutdown() can
      // never hit a recycled fd.
      std::lock_guard<std::mutex> lock(conn_mu_);
      in_flight_fds_[static_cast<size_t>(worker_index)] = -1;
    }
    ::close(fd);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++exited_workers_;
  }
  drained_cv_.notify_all();
}

void ServeServer::DispatchLoop(Replica* replica) {
  // Continuous batching: an idle replica runs what is queued at once;
  // submissions made while a batch encodes wait on `mu` and leave together
  // as the next batch.
  std::unique_lock<std::mutex> lock(replica->mu);
  for (;;) {
    replica->ready.wait(lock, [replica] {
      return replica->stop || replica->scheduler->pending() > 0;
    });
    if (replica->scheduler->pending() == 0) return;  // Stopped and drained.
    replica->scheduler->Flush();
  }
}

void ServeServer::ServeConnection(int fd) {
  struct timeval tv;
  tv.tv_sec = options_.read_timeout_ms / 1000;
  tv.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // One frame at a time until EOF, error, malformed frame, or shutdown. The
  // idle poll between frames is what bounds how long a quiet connection can
  // delay Stop().
  for (;;) {
    if (hard_stop_.load(std::memory_order_acquire)) return;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, options_.idle_poll_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) {
      // Idle tick. A connection with no frame in flight owes nothing at
      // shutdown — drop it so the drain finishes fast.
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    if (pfd.revents & (POLLERR | POLLNVAL)) return;
    if (!ServeOneFrame(fd)) return;
  }
}

size_t ServeServer::PickReplica(int64_t /*cost*/) {
  // Least-loaded by queued token cost; ties go round-robin so equal-load
  // replicas share work instead of replica 0 absorbing every burst.
  const size_t n = replicas_.size();
  const size_t start =
      rr_counter_.fetch_add(1, std::memory_order_relaxed) % n;
  size_t best = start;
  int64_t best_cost =
      replicas_[start]->inflight_cost.load(std::memory_order_relaxed);
  for (size_t off = 1; off < n; ++off) {
    const size_t i = (start + off) % n;
    const int64_t c =
        replicas_[i]->inflight_cost.load(std::memory_order_relaxed);
    if (c < best_cost) {
      best = i;
      best_cost = c;
    }
  }
  return best;
}

bool ServeServer::WriteResponse(int fd, const WireResponse& response,
                                int64_t* wire_bytes) {
  const std::string wire = EncodeResponseFrame(response);
  if (wire_bytes != nullptr) *wire_bytes = static_cast<int64_t>(wire.size());
  return obs::server::WriteAll(fd, wire.data(), wire.size());
}

bool ServeServer::ServeOneFrame(int fd) {
  uint8_t header[kRequestHeaderBytes];
  if (!ReadFull(fd, header, sizeof(header))) {
    return false;  // EOF between frames, or timeout/garbage mid-header.
  }
  const double start_ms = rt::BatchScheduler::NowMs();

  // The request's wide event, filled in as the frame progresses; every
  // terminal path below ends in finish() and emits exactly one event (the
  // scheduler stays quiet — caller_owns_event).
  obs::WideEvent event;
  event.origin = "serve";
  event.task = "unknown";  // Until the header names a valid task.
  event.bytes_in = static_cast<int64_t>(sizeof(header));
  WireResponse response;
  // Records the SLI sample *before* the reply leaves — a client that reads
  // its reply and then scrapes /healthz must see it — then writes the reply
  // (unless `send` is false) and appends the wide event, reply_us being the
  // measured write tail. Returns whether the reply was written.
  const auto finish = [&](bool send = true) {
    event.status = rt::ResponseStatusName(response.status);
    const double reply_start_ms = rt::BatchScheduler::NowMs();
    obs::SliEngine::Get().Record(event.task,
                                 obs::OutcomeFromStatusName(event.status),
                                 reply_start_ms - start_ms, event.trace_id);
    const bool written = send && WriteResponse(fd, response, &event.bytes_out);
    event.end_ms = rt::BatchScheduler::NowMs();
    event.reply_us = (event.end_ms - reply_start_ms) * 1000.0;
    event.total_us = (event.end_ms - start_ms) * 1000.0;
    if (obs::EventLog::Enabled()) obs::EventLog::Get().Append(event);
    return written;
  };

  RequestHeader request_header;
  const Status parsed =
      ParseRequestHeader(header, options_.max_payload_bytes, &request_header);
  if (!parsed.ok()) {
    // Bad magic/version/task or an oversized length prefix: answer what we
    // can and fail the connection — nothing was allocated for the claimed
    // payload, and resynchronizing a framed stream after garbage is
    // guesswork.
    BadFrameCounter()->Inc();
    response.status = rt::ResponseStatus::kBadRequest;
    response.message = parsed.ToString();
    finish();
    return false;
  }
  event.task = rt::TaskKindName(request_header.task);
  event.request_id = request_header.request_id;

  std::vector<uint8_t> payload(request_header.payload_len);
  if (request_header.payload_len > 0 &&
      !ReadFull(fd, payload.data(), payload.size())) {
    BadFrameCounter()->Inc();
    response.status = rt::ResponseStatus::kBadRequest;
    finish(/*send=*/false);
    return false;  // Truncated payload: peer hung up or stalled past timeout.
  }
  event.bytes_in += static_cast<int64_t>(payload.size());
  response.request_id = request_header.request_id;

  core::EncodedTable table;
  const Status decoded =
      DecodeRequestPayload(payload.data(), payload.size(), &table);
  if (!decoded.ok() || table.total() <= 0) {
    BadFrameCounter()->Inc();
    response.status = rt::ResponseStatus::kBadRequest;
    response.message = decoded.ok() ? "empty table" : decoded.ToString();
    finish();
    return false;
  }
  RequestCounter()->Inc();

  if (stopping_.load(std::memory_order_acquire)) {
    // Admitted connections finish their in-flight frame during drain, but a
    // *new* frame after Stop() began is refused — that is what makes the
    // drain converge.
    response.status = rt::ResponseStatus::kShuttingDown;
    response.message = "server draining";
    finish();
    return false;
  }

  // Admission control: a bounded number of decoded requests may be queued
  // across the replicas; beyond that we shed *this request* (the connection
  // survives — the client may back off and retry).
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_requests) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    ShedCounter()->Inc();
    response.status = rt::ResponseStatus::kOverloaded;
    response.message = "overloaded: inflight request cap";
    return finish();
  }
  InflightGauge()->Set(
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));

  // Wire deadline (relative to receipt) -> absolute scheduler-clock
  // deadline. 0 means "already expired": enforced right here, the cheapest
  // of the three enforcement points.
  double deadline_ms = 0.0;
  if (request_header.deadline_ms != kNoDeadline) {
    event.deadline_budget_ms = request_header.deadline_ms;
    deadline_ms = rt::BatchScheduler::NowMs() + request_header.deadline_ms;
    if (request_header.deadline_ms == 0) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      DeadlineMissedCounter()->Inc();
      response.status = rt::ResponseStatus::kDeadlineExceeded;
      response.message = "deadline expired on arrival";
      return finish();
    }
  }

  // Root span for the serve pipeline; the scheduler's stage spans (queue
  // wait, batch assembly, encode) nest under it via the request context.
  obs::ActiveSpan root;
  rt::Request request;
  request.caller_owns_trace = true;
  // The serve layer reports this request's wide event + SLI sample with the
  // wire context only it knows (byte sizes, replica, reply stage); the
  // scheduler must not double-count it.
  request.caller_owns_event = true;
  if (obs::Tracer::Enabled()) {
    root = obs::Tracer::Get().BeginTrace("serve.request");
    if (root.traced()) {
      root.Annotate("task", rt::TaskKindName(request_header.task));
      root.Annotate("total", table.total());
      request.trace = root.context();
      event.trace_id = root.context().trace_id;
    }
  }

  const int64_t cost = table.total();
  const size_t replica_index = PickReplica(cost);
  Replica& replica = *replicas_[replica_index];
  event.replica = static_cast<int32_t>(replica_index);
  replica.inflight_cost.fetch_add(cost, std::memory_order_relaxed);

  std::promise<rt::Response> promise;
  std::future<rt::Response> future = promise.get_future();
  request.table = &table;
  request.task = request_header.task;
  request.request_id = request_header.request_id;
  request.deadline_ms = deadline_ms;
  request.done = [&promise](rt::Response r) { promise.set_value(std::move(r)); };
  {
    // The replica mutex is BatchScheduler's external serialization: many IO
    // workers submit, the dispatcher flushes, one at a time. An eager
    // (size/budget) flush runs inline here under the lock; the completion
    // then lands before wait() even starts.
    std::lock_guard<std::mutex> lock(replica.mu);
    replica.scheduler->Submit(std::move(request));
  }
  replica.ready.notify_one();
  rt::Response result = future.get();

  replica.inflight_cost.fetch_sub(cost, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  InflightGauge()->Set(
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));

  // Deadline at reply: a result the scheduler produced in time can still be
  // late by the time this worker is ready to write it.
  if (result.status == rt::ResponseStatus::kOk && deadline_ms > 0.0 &&
      rt::BatchScheduler::NowMs() >= deadline_ms) {
    result.status = rt::ResponseStatus::kDeadlineExceeded;
  }

  if (result.status == rt::ResponseStatus::kOk) {
    response.status = rt::ResponseStatus::kOk;
    response.rows = result.hidden.dim(0);
    response.cols = result.hidden.dim(1);
    response.hidden = result.hidden.ToVector();
  } else {
    if (result.status == rt::ResponseStatus::kDeadlineExceeded) {
      DeadlineMissedCounter()->Inc();
    }
    response.status = result.status;
    response.message = ResponseStatusName(result.status);
  }
  event.queue_wait_us = result.queue_wait_ms * 1000.0;
  event.assembly_us = result.assembly_ms * 1000.0;
  event.encode_us = result.encode_ms * 1000.0;
  event.batch_size = result.batch_size;

  LatencyHistogram(request_header.task)
      ->Observe(rt::BatchScheduler::NowMs() - start_ms);
  const bool written = finish();
  if (root.traced()) obs::Tracer::Get().End(&root);
  return written;
}

}  // namespace serve
}  // namespace turl
