#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/config_error.h"
#include "dse/sweep.h"
#include "workloads/registry.h"

namespace ara::serve {

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      cache_(opts.cache_dir),
      clock_(opts.clock != nullptr ? opts.clock
                                   : &obs::MonotonicClock::host()),
      queue_(opts.queue_capacity) {
  if (!opts_.log_path.empty()) {
    log_ = std::make_unique<obs::RequestLog>(obs::RequestLog::Options{
        opts_.log_path, opts_.log_max_bytes, opts_.slow_ms});
  }
}

Server::~Server() { stop(); }

void Server::start() {
  const unsigned n = opts_.handlers > 0 ? opts_.handlers : 1;
  handlers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    handlers_.emplace_back([this] { handler_loop(); });
  }
}

std::string Server::handle(const protocol::Request& request) {
  {
    common::MutexLock lock(mu_);
    stats_.counter("serve.server.requests").inc();
  }
  switch (request.kind) {
    case protocol::Request::Kind::kPing:
      return protocol::pong_response();
    case protocol::Request::Kind::kStats:
      return protocol::stats_response(stats_snapshot());
    case protocol::Request::Kind::kSweep:
      break;
  }

  // Admission mints the request's trace. The trace lives on this stack
  // frame alongside the Work; the handler thread borrows it through
  // Work::trace while this thread blocks on `done`.
  obs::RequestTrace trace;
  trace.clock = clock_;
  trace.client = request.client;
  trace.workload = request.workload;
  trace.points = request.points.size();
  trace.start_ns = clock_->now_ns();

  Work work;
  work.request = &request;
  work.trace = &trace;
  {
    common::MutexLock lock(mu_);
    trace.id = next_trace_id_++;
    if (draining_ || stopping_) {
      stats_.counter("serve.server.rejected_draining").inc();
      trace.error = "draining";
    } else if (!queue_.push(request.client, &work)) {
      stats_.counter("serve.server.rejected_overload").inc();
      trace.error = "overloaded";
    } else {
      work.enqueued_ns = clock_->now_ns();
      work_cv_.notify_one();
      while (!work.done) done_cv_.wait(mu_);
    }
  }
  trace.total_ns = clock_->now_ns() - trace.start_ns;

  if (trace.error == "draining") {
    if (log_ != nullptr) log_->append(trace);
    return protocol::error_response(
        "draining", "server is draining; no new sweeps are admitted",
        trace.id);
  }
  if (trace.error == "overloaded") {
    if (log_ != nullptr) log_->append(trace);
    return protocol::error_response(
        "overloaded", "request queue is full; retry after a sweep drains",
        trace.id);
  }

  // Completed (successfully or with a typed error) through a handler:
  // feed the live time-series, then the request log.
  {
    common::MutexLock lock(mu_);
    window_.record(clock_->now_ns(), trace.total_ns, trace.points,
                   trace.hits + trace.aliases + trace.followers);
  }
  if (log_ != nullptr) log_->append(trace);
  return std::move(work.response);
}

void Server::handler_loop() {
  for (;;) {
    Work* work = nullptr;
    {
      common::MutexLock lock(mu_);
      while (!stopping_ && !queue_.pop(&work)) work_cv_.wait(mu_);
      if (work == nullptr) return;  // stopping and the queue is dry
      ++in_flight_;
    }
    // Admission-queue wait ends here: charge push -> pop to the queued
    // span before any simulation work starts.
    work->trace->add_phase(obs::Phase::kQueued,
                           clock_->now_ns() - work->enqueued_ns);
    // Simulate with no lock held: only the queue hand-off is serialized.
    std::string response = execute_sweep(*work->request, work->trace);
    {
      common::MutexLock lock(mu_);
      work->response = std::move(response);
      work->done = true;
      --in_flight_;
      done_cv_.notify_all();
    }
  }
}

std::string Server::execute_sweep(const protocol::Request& request,
                                  obs::RequestTrace* trace) {
  try {
    const workloads::Workload workload =
        workloads::make_benchmark(request.workload, request.scale);
    dse::SweepRequest sweep;
    sweep.jobs = opts_.jobs;
    sweep.cache = &cache_;
    sweep.coalescer = &coalescer_;
    sweep.trace = trace;
    for (const auto& point : request.points) {
      core::ArchConfig config = point.to_config();
      config.validate();
      sweep.add(std::move(config), workload);
    }
    const std::vector<dse::SweepResult> results = dse::run(sweep);

    {
      common::MutexLock lock(mu_);
      stats_.counter("serve.server.sweeps").inc();
      for (const auto& r : results) {
        stats_.counter("serve.server.points").inc();
        if (r.from_cache) {
          stats_.counter("serve.server.points_cached").inc();
        } else if (r.coalesced) {
          stats_.counter("serve.server.points_coalesced").inc();
        } else {
          stats_.counter("serve.server.points_simulated").inc();
        }
      }
    }
    const std::uint64_t trace_id = trace != nullptr ? trace->id : 0;
    obs::ScopedSpan serialize_span(trace, obs::Phase::kSerialize);
    std::string response =
        protocol::sweep_response(results, cache_.salt(), trace_id);
    if (response.size() <= protocol::kMaxFrameBytes) return response;
    // write_frame would refuse this payload and the session would close
    // without a frame. The points are in the cache by now, so smaller
    // sweeps over the same points are hits.
    if (trace != nullptr) trace->error = "bad_request";
    common::MutexLock lock(mu_);
    stats_.counter("serve.server.errors").inc();
    return protocol::error_response(
        "bad_request",
        "sweep response of " + std::to_string(response.size()) +
            " bytes exceeds the " + std::to_string(protocol::kMaxFrameBytes) +
            "-byte frame limit; its points are now cached, so splitting "
            "the sweep into smaller requests serves them as cache hits",
        trace_id);
  } catch (const ConfigError& e) {
    if (trace != nullptr) {
      trace->error = "bad_request";
      // The points queued for simulation are the ones the failure ate.
      trace->failed += trace->misses;
      trace->misses = 0;
    }
    common::MutexLock lock(mu_);
    stats_.counter("serve.server.errors").inc();
    return protocol::error_response("bad_request", e.what(),
                                    trace != nullptr ? trace->id : 0);
  } catch (const std::exception& e) {
    if (trace != nullptr) {
      trace->error = "failed";
      trace->failed += trace->misses;
      trace->misses = 0;
    }
    common::MutexLock lock(mu_);
    stats_.counter("serve.server.errors").inc();
    return protocol::error_response("failed", e.what(),
                                    trace != nullptr ? trace->id : 0);
  }
}

void Server::begin_drain() {
  common::MutexLock lock(mu_);
  draining_ = true;
}

void Server::stop() {
  {
    common::MutexLock lock(mu_);
    draining_ = true;
    while (!queue_.empty() || in_flight_ > 0) done_cv_.wait(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (auto& t : handlers_) t.join();
  handlers_.clear();
}

obs::MetricsSnapshot Server::stats_snapshot() {
  common::MutexLock lock(mu_);
  // Monotonic roll-ups of the shared components' own telemetry (gauges
  // that can shrink, like coalescer in-flight, are deliberately absent:
  // counters only move up).
  stats_.set_counter("serve.cache.hits", cache_.hits());
  stats_.set_counter("serve.cache.misses", cache_.misses());
  stats_.set_counter("serve.cache.disk_hits", cache_.disk_hits());
  stats_.set_counter("serve.cache.entries", cache_.size());
  stats_.set_counter("serve.coalescer.coalesced", coalescer_.coalesced());
  obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture(stats_);

  // serve.window.*: the sliding-window time-series. These are gauges over
  // the last window (they rise AND fall), so they go straight into the
  // snapshot values rather than through the monotonic counter registry.
  // A scalar gauge is encoded as an accumulator with one sample
  // (sum == mean == min == max == value); "serve.window" sorts after the
  // registry's "serve.*" names, so the snapshot stays name-ordered.
  const obs::SlidingWindow::Summary w = window_.summarize(clock_->now_ns());
  snap.counters.push_back({"serve.window.points", w.points});
  snap.counters.push_back({"serve.window.points_avoided", w.points_avoided});
  snap.counters.push_back({"serve.window.requests", w.requests});
  snap.counters.push_back({"serve.window.span_ns", w.span_ns});
  auto gauge = [&snap](const char* name, double v) {
    snap.accumulators.push_back({name, v, 1, v, v, v});
  };
  gauge("serve.window.hit_ratio", w.hit_ratio);
  gauge("serve.window.p50_ms", w.p50_ms);
  gauge("serve.window.p95_ms", w.p95_ms);
  gauge("serve.window.p99_ms", w.p99_ms);
  gauge("serve.window.req_per_sec", w.requests_per_sec);
  return snap;
}

// --------------------------------------------------------- socket front end

bool Server::listen(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() + 1 > sizeof addr.sun_path) {
    *error = "socket path empty or too long: '" + opts_.socket_path + "'";
    return false;
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  ::unlink(opts_.socket_path.c_str());  // stale file from a crashed run
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    *error = "bind/listen on '" + opts_.socket_path +
             "': " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

int Server::serve(const std::atomic<int>& signal) {
  while (signal.load(std::memory_order_acquire) == 0) {
    reap_sessions();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal landed; loop re-checks
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (sessions_.size() >= opts_.max_sessions) {
      {
        common::MutexLock lock(mu_);
        stats_.counter("serve.server.rejected_sessions").inc();
      }
      protocol::write_frame(
          fd, protocol::error_response(
                  "overloaded",
                  "too many concurrent connections; retry shortly"));
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_session_id_++;
    {
      common::MutexLock lock(session_mu_);
      session_fds_.push_back(fd);
    }
    sessions_.push_back(
        {id, std::thread([this, fd, id] { session(fd, id); })});
  }

  // Graceful drain: no new connections or sweeps; in-flight requests run
  // to completion and their responses are delivered before sockets close.
  begin_drain();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    common::MutexLock lock(session_mu_);
    // Half-close each session's read side: a blocked read_frame wakes
    // with EOF immediately, while a session mid-request still writes its
    // response before noticing on the next read.
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (auto& s : sessions_) s.thread.join();
  sessions_.clear();
  {
    common::MutexLock lock(session_mu_);
    finished_sessions_.clear();
  }
  stop();
  ::unlink(opts_.socket_path.c_str());
  return 0;
}

void Server::reap_sessions() {
  std::vector<std::uint64_t> done;
  {
    common::MutexLock lock(session_mu_);
    done.swap(finished_sessions_);
  }
  for (const std::uint64_t id : done) {
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->id == id) {
        it->thread.join();
        sessions_.erase(it);
        break;
      }
    }
  }
}

void Server::session(int fd, std::uint64_t id) {
  std::string payload;
  for (;;) {
    const protocol::ReadStatus status = protocol::read_frame(fd, &payload);
    if (status != protocol::ReadStatus::kOk) break;
    protocol::Request request;
    std::string parse_error;
    std::string response;
    if (!protocol::parse_request(payload, &request, &parse_error)) {
      common::MutexLock lock(mu_);
      stats_.counter("serve.server.bad_requests").inc();
      response = protocol::error_response("bad_request", parse_error);
    } else {
      response = handle(request);
    }
    if (!protocol::write_frame(fd, response)) break;
  }
  {
    // Deregister before close so the drain path never shutdown()s a
    // recycled descriptor; announce completion so the accept loop joins
    // this thread instead of letting it linger unjoined.
    common::MutexLock lock(session_mu_);
    std::erase(session_fds_, fd);
    finished_sessions_.push_back(id);
  }
  ::close(fd);
}

}  // namespace ara::serve
