// ara_serve core: a persistent sweep service wrapped around dse::run.
//
// One Server owns the process-wide warm state — a dse::ResultCache (memory
// + optional disk tier, plus the claims on points in flight) — and exposes
// a single entry point, handle(), that turns a parsed protocol::Request
// into a response string. Every sweep goes through the exact same dse::run
// path the CLI tools use, so a served point is bit-identical to a local
// run of the same design point (the contract tests/serve_test.cc pins).
//
// Request flow for a sweep:
//   session thread -> handle() -> admission control -> FairQueue ->
//   handler thread -> dse::run (shared cache) -> response.
//
// Admission control is a bounded FairQueue with per-client round-robin
// scheduling: each client name owns a FIFO lane, and handlers take the
// next request from the next non-empty lane in rotation, so one client
// submitting hundreds of sweeps cannot starve another submitting one. A
// full queue rejects synchronously with a typed "overloaded" error; after
// begin_drain() new sweeps are rejected with "draining" while queued and
// in-flight work runs to completion.
//
// Observability: every sweep admission mints an obs::RequestTrace (id,
// per-phase spans, per-point outcomes) that rides the Work item through
// the queue and dse::run; completed requests feed the serve.window.*
// sliding-window time-series in the stats endpoint and, when configured,
// one JSONL line in the obs::RequestLog. All timing goes through the
// injectable obs::MonotonicClock seam, so tracing is deterministic under
// a FakeClock and sweeps stay bit-identical traced or not.
//
// Threading: mu_ guards the queue, the drain/stop flags, and the stat
// registry (a StatRegistry is single-owner, so the server's registry is
// only ever touched under mu_). Simulations never run under mu_ — a
// handler pops under the lock, simulates unlocked, then re-locks to
// deliver. The socket front end (listen/serve) adds one session thread
// per connection; session bookkeeping has its own session_mu_ so a slow
// accept loop never contends with the request path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dse/result_cache.h"
#include "obs/clock.h"
#include "obs/request_log.h"
#include "obs/span.h"
#include "obs/window.h"
#include "serve/protocol.h"
#include "sim/stats.h"

namespace ara::serve {

/// Bounded multi-client round-robin queue. Each distinct client name owns
/// a FIFO lane; pop() serves lanes in rotation. Not internally locked —
/// the owner serializes access (Server uses its mu_).
template <typename T>
class FairQueue {
 public:
  explicit FairQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when the queue is at capacity (the caller rejects the request).
  bool push(const std::string& client, T item) {
    if (size_ >= capacity_) return false;
    for (auto& lane : lanes_) {
      if (lane.client == client) {
        lane.items.push_back(std::move(item));
        ++size_;
        return true;
      }
    }
    lanes_.push_back({client, {}});
    lanes_.back().items.push_back(std::move(item));
    ++size_;
    return true;
  }

  /// Take the next item round-robin across clients; false when empty.
  bool pop(T* out) {
    if (size_ == 0) return false;
    const std::size_t k = rr_ % lanes_.size();
    Lane& lane = lanes_[k];
    *out = std::move(lane.items.front());
    lane.items.pop_front();
    --size_;
    if (lane.items.empty()) {
      // The next lane slides into index k; pointing rr_ at k keeps the
      // rotation moving forward instead of re-serving an earlier lane.
      lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(k));
      rr_ = lanes_.empty() ? 0 : k % lanes_.size();
    } else {
      rr_ = (k + 1) % lanes_.size();
    }
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Lane {
    std::string client;
    std::deque<T> items;  // never empty while in lanes_
  };
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Lane> lanes_;  // arrival order of first pending request
  std::size_t rr_ = 0;       // next lane to serve
};

struct ServerOptions {
  /// AF_UNIX socket path (socket front end only; handle() needs none).
  std::string socket_path;
  /// Executor workers per sweep (dse::SweepRequest::jobs).
  unsigned jobs = 1;
  /// Concurrent sweep handlers (requests executing at once).
  unsigned handlers = 2;
  /// Sweeps that may wait beyond the executing ones; 0 rejects whenever
  /// no handler picks the request up instantly (useful in tests).
  std::size_t queue_capacity = 64;
  /// Concurrent client connections the socket front end admits; a
  /// connection past the cap gets a typed "overloaded" error frame and
  /// is closed (mirrors the queue's admission reject).
  std::size_t max_sessions = 256;
  /// On-disk cache tier directory ("" = memory-only warm cache).
  std::string cache_dir;
  /// JSONL request log path ("" = off): one RFC 8259 object per completed
  /// sweep request, rotated at log_max_bytes (see obs::RequestLog).
  std::string log_path;
  std::uint64_t log_max_bytes = 8u << 20;
  /// Requests slower than this many milliseconds get "slow":true in the
  /// log (0 = never flag).
  std::uint64_t slow_ms = 0;
  /// Time source for request spans and the serve.window.* time-series
  /// (null = the host clock; tests inject an obs::FakeClock).
  obs::MonotonicClock* clock = nullptr;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the handler pool. Sweeps submitted before start() queue (or
  /// reject) but do not execute.
  void start();

  /// Handle one request synchronously: ping/stats answer inline; sweeps
  /// go through admission control and block until a handler finishes
  /// them. Always returns a well-formed response frame payload.
  std::string handle(const protocol::Request& request)
      ARA_EXCLUDES(mu_);

  /// Stop admitting sweeps ("draining" rejects); in-flight and queued
  /// work keeps running.
  void begin_drain() ARA_EXCLUDES(mu_);

  /// begin_drain(), wait for the queue and all in-flight sweeps to
  /// finish, then join the handler pool. Idempotent.
  void stop() ARA_EXCLUDES(mu_);

  /// Server + cache telemetry as a metrics snapshot (the stats endpoint's
  /// payload).
  obs::MetricsSnapshot stats_snapshot() ARA_EXCLUDES(mu_);

  dse::ResultCache& cache() { return cache_; }
  /// The JSONL request log (null when ServerOptions::log_path is empty).
  const obs::RequestLog* request_log() const { return log_.get(); }

  // --- socket front end -------------------------------------------------
  /// Bind + listen on opts.socket_path (replacing a stale socket file).
  /// False with *error filled on failure.
  bool listen(std::string* error);

  /// Accept loop: one session thread per connection, each answering
  /// frames in order via handle(). Returns (always 0) after `signal`
  /// becomes non-zero: the listener closes, sessions are told to finish
  /// their current request and stop, queued work drains, and the socket
  /// file is unlinked. Install a SIGTERM/SIGINT handler that sets
  /// `signal` to get graceful drain on shutdown.
  int serve(const std::atomic<int>& signal);

 private:
  /// One queued sweep; lives on the submitting thread's stack (which
  /// blocks on `done`, keeping the pointer valid for the handler).
  struct Work {
    const protocol::Request* request = nullptr;
    /// The submitter's trace (same stack frame as the Work). The handler
    /// charges the pop-to-push interval to the queued span and carries
    /// the trace through dse::run; the FairQueue hand-off orders the two
    /// threads' accesses.
    obs::RequestTrace* trace = nullptr;
    std::uint64_t enqueued_ns = 0;
    std::string response;
    bool done = false;
  };

  std::string execute_sweep(const protocol::Request& request,
                            obs::RequestTrace* trace) ARA_EXCLUDES(mu_);
  void handler_loop() ARA_EXCLUDES(mu_);
  void session(int fd, std::uint64_t id);
  void reap_sessions();

  const ServerOptions opts_;
  dse::ResultCache cache_;
  obs::MonotonicClock* clock_;  // opts_.clock or the host clock; never null
  std::unique_ptr<obs::RequestLog> log_;  // null when logging is off

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  // handlers: queue non-empty or stopping
  common::CondVar done_cv_;  // submitters/stop(): a sweep finished
  FairQueue<Work*> queue_ ARA_GUARDED_BY(mu_);
  std::size_t in_flight_ ARA_GUARDED_BY(mu_) = 0;
  bool draining_ ARA_GUARDED_BY(mu_) = false;
  bool stopping_ ARA_GUARDED_BY(mu_) = false;
  sim::StatRegistry stats_ ARA_GUARDED_BY(mu_);
  obs::SlidingWindow window_ ARA_GUARDED_BY(mu_);
  std::uint64_t next_trace_id_ ARA_GUARDED_BY(mu_) = 1;

  std::vector<std::thread> handlers_;

  int listen_fd_ = -1;
  common::Mutex session_mu_;
  std::vector<int> session_fds_ ARA_GUARDED_BY(session_mu_);
  /// A finished session announces its id here; the accept loop joins and
  /// erases it on the next iteration, so a long-running daemon never
  /// accumulates unjoined (stack-retaining) session threads.
  std::vector<std::uint64_t> finished_sessions_ ARA_GUARDED_BY(session_mu_);
  struct Session {
    std::uint64_t id;
    std::thread thread;
  };
  /// Only serve() (one thread) appends/reaps/joins; sessions never touch
  /// it — they signal completion through finished_sessions_.
  std::vector<Session> sessions_;
  std::uint64_t next_session_id_ = 0;  // only serve() touches
};

}  // namespace ara::serve
