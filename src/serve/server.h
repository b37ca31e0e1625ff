#ifndef TURL_SERVE_SERVER_H_
#define TURL_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "obs/server/handlers.h"
#include "obs/slo.h"
#include "rt/batch_scheduler.h"
#include "rt/inference_session.h"
#include "rt/request.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace turl {
namespace serve {

/// Knobs for a ServeServer.
struct ServeOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Model inference serves user payloads, but the reproduction still binds
  /// loopback by default; widen deliberately.
  std::string bind_address = "127.0.0.1";
  /// Model replicas: each owns an InferenceSession + BatchScheduler behind
  /// its own mutex (the cuBERT BertM shape); requests go to the least
  /// loaded. 0 resolves through $TURL_SERVE_REPLICAS, then 2.
  int num_replicas = 0;
  /// IO workers; each owns one connection at a time, so this is also the
  /// concurrent-connection cap. Connections beyond workers + queue are shed.
  int num_io_workers = 8;
  /// Accepted-but-unserved connections held at once; beyond this the accept
  /// thread sheds the connection with an OVERLOADED frame.
  int max_queued_connections = 16;
  /// Admission control: decoded requests in flight (submitted, reply not
  /// yet written) across all replicas; beyond this a request is shed with
  /// OVERLOADED instead of queued — bounded queue, explicit shed, exactly
  /// the serve-protocol analogue of the obs server's 503 path.
  int max_inflight_requests = 64;
  /// SO_RCVTIMEO while reading a frame; a client that stalls mid-frame
  /// cannot pin a worker past this.
  int read_timeout_ms = 5000;
  /// Poll tick between frames on an idle connection; bounds how long a
  /// worker takes to notice Stop().
  int idle_poll_ms = 50;
  /// Not read by the server: each replica's dispatcher runs its queue as
  /// soon as the replica is idle, with no age flush. Kept for the
  /// benchmark's scheduler replay (turlbench/serve_workload.cc), which
  /// still models the old age-flush pump.
  int pump_interval_ms = 2;
  /// Stop(): grace period for in-flight requests before their sockets are
  /// forcibly shut down.
  int drain_deadline_ms = 2000;
  /// Request frames with a larger payload are rejected before allocation.
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Per-replica session knobs (threads per replica, scratch seed).
  rt::SessionOptions session;
  /// Per-replica micro-batching caps (max_batch_tables, max_batch_budget);
  /// max_age_ms is not read, since replicas never wait to fill a batch.
  rt::BatchSchedulerOptions batch;
  /// SLO targets registered with the global SloWatchdog for the server's
  /// lifetime (each becomes a `slo.<name>` probe on /healthz). Empty
  /// installs the defaults: serve.availability (availability >= 0.99) and
  /// serve.deadline (deadline-miss rate <= 0.05), both over the 1m window
  /// once it holds >= 20 requests.
  std::vector<obs::SloTarget> slo_targets;
};

/// The serving front-end of the inference runtime: a poll()-based accept
/// loop (the obs::server socket idioms) speaking the length-prefixed binary
/// protocol of serve/protocol.h, feeding rt::Request batches through N
/// model replicas.
///
/// Replica dispatch: each replica is one InferenceSession + BatchScheduler
/// pair guarded by a mutex; a decoded request goes to the replica with the
/// least in-flight token cost (ties broken round-robin) and is submitted
/// under the replica lock. Each replica has a dispatcher thread that runs
/// its queue as soon as the replica is idle (continuous batching): a lone
/// request is encoded at once, and requests that arrive while a batch
/// encodes queue behind it and leave together as the next batch.
///
/// Admission control and backpressure: connections beyond the accept queue
/// are shed with an OVERLOADED frame at accept; decoded requests beyond
/// max_inflight_requests are shed with OVERLOADED before touching a
/// replica. The server never queues unboundedly and never blocks a reply
/// on shed work.
///
/// Deadlines: a frame's relative deadline becomes an absolute
/// rt::Request::deadline_ms. It is enforced three times — at admission
/// (already expired: kDeadlineExceeded without submitting), at dequeue
/// (BatchScheduler completes expired requests unencoded), and at reply (a
/// result that arrives too late is replaced by kDeadlineExceeded).
///
/// Shutdown mirrors obs::server::Stop(): (1) stop accepting, (2) graceful
/// drain — workers finish the frame in flight, the dispatchers (which
/// outlive the workers) flush, every accepted request is answered — bounded
/// by drain_deadline_ms, (3) hard deadline: remaining connection sockets
/// are shut down. In-flight requests admitted before Stop() are completed,
/// not dropped.
class ServeServer {
 public:
  /// The model must outlive the server. Replicas share the const model (an
  /// inference forward never mutates it); each gets its own session pool.
  ServeServer(const core::TurlModel& model, ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens, warms the replicas and spawns accept, IO and
  /// per-replica dispatcher threads. Fails without leaking if the address
  /// cannot be bound.
  Status Start();

  /// Three-step graceful shutdown (see class comment). Idempotent; Start()
  /// works again afterwards.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves port 0 to the kernel-assigned one).
  int port() const { return port_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }

  /// Requests currently admitted and not yet answered.
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Options off the environment: TURL_SERVE_PORT (default 0 = ephemeral)
  /// and TURL_SERVE_REPLICAS (default 2).
  static ServeOptions OptionsFromEnv();

 private:
  /// One model replica: a session + scheduler pair behind a mutex. mu
  /// serializes Submit/Flush (BatchScheduler's single-threaded discipline)
  /// and guards `stop`; `ready` wakes the dispatcher when a request is
  /// queued or stop is set; inflight_cost is PickReplica's load signal.
  struct Replica {
    std::unique_ptr<rt::InferenceSession> session;
    std::unique_ptr<rt::BatchScheduler> scheduler;
    std::mutex mu;
    std::condition_variable ready;
    bool stop = false;
    std::thread dispatcher;
    std::atomic<int64_t> inflight_cost{0};
  };

  void AcceptLoop();
  void WorkerLoop(int worker_index);
  /// Flushes the replica's queue whenever it is non-empty; exits once stop
  /// is set and the queue is empty.
  void DispatchLoop(Replica* replica);
  void ServeConnection(int fd);
  /// Reads, decodes, runs and answers one frame. False when the connection
  /// must close (EOF, malformed frame, write failure).
  bool ServeOneFrame(int fd);
  /// Index of the least-loaded replica — an index (not a reference) so the
  /// wide event can name the replica that served the request.
  size_t PickReplica(int64_t cost);
  /// `wire_bytes`, when non-null, receives the encoded frame size (the wide
  /// event's bytes_out) whether or not the write succeeded.
  bool WriteResponse(int fd, const WireResponse& response,
                     int64_t* wire_bytes = nullptr);

  const core::TurlModel& model_;
  ServeOptions options_;

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<uint64_t> rr_counter_{0};
  std::atomic<int64_t> inflight_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> hard_stop_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     ///< Queue non-empty or stopping.
  std::condition_variable drained_cv_;  ///< A worker exited its loop.
  std::deque<int> pending_;             ///< Accepted fds awaiting a worker.
  int exited_workers_ = 0;

  /// fd each worker currently serves (-1 idle); guarded by conn_mu_ so the
  /// hard-deadline path can shutdown() an fd without racing its close().
  std::mutex conn_mu_;
  std::vector<int> in_flight_fds_;

  /// "serve.listener" in /healthz while replicas are warm and the listener
  /// accepts — a scrape can tell "process up" from "serving traffic".
  std::optional<obs::server::ScopedReadinessProbe> readiness_;
  /// SLO targets installed in the global watchdog for this Start/Stop cycle
  /// (ids for RemoveTarget).
  std::vector<int> slo_target_ids_;
};

}  // namespace serve
}  // namespace turl

#endif  // TURL_SERVE_SERVER_H_
