#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <optional>
#include <utility>

#include "io/json.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "util/cancel.hpp"
#include "util/fdio.hpp"
#include "util/timing.hpp"

namespace pipeopt::server {

namespace {

using util::FdLineReader;
using util::write_line;

std::string error_line(const std::string& id, const std::string& message) {
  return io::format_error(message, id);
}

/// The first value of `key`, "" when absent: best-effort, so even a
/// semantically broken request gets its error echoed under its `id`, and
/// an untraced one has an empty `trace`.
std::string peek(const io::JsonFields& fields, const std::string& key) {
  for (const auto& [k, value] : fields) {
    if (k == key) return value;
  }
  return {};
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      executor_(api::ExecutorOptions{.jobs = options_.jobs,
                                     .cache_entries = options_.cache_entries}),
      fault_(net::make_fault_injector("pipeopt-server", options_.fault_spec)),
      started_(std::chrono::steady_clock::now()),
      host_("pipeopt-server", fault_.get(), [this](int fd) {
        stats_.record_connection();
        session_loop(fd, fd, /*is_socket=*/true);
      }) {
  // Stats snapshots include the cache counters iff the cache exists, so a
  // cache-disabled server's stats line keeps its exact historical bytes.
  stats_.attach_cache(executor_.cache());
  if (!options_.trace_log.empty()) {
    trace_log_ = std::make_unique<obs::TraceLog>(options_.trace_log);
  }
  if (fault_) session_hooks_ = &fault_->front_io();
}

std::uint16_t Server::listen() {
  return host_.listen(options_.host, options_.port, options_.backlog);
}

void Server::serve() {
  listen();
  host_.serve();
}

void Server::serve_stream(int in_fd, int out_fd) {
  stats_.record_connection();
  session_loop(in_fd, out_fd, /*is_socket=*/false);
}

void Server::shutdown() { host_.shutdown(); }

void Server::install_signal_handlers(Server& server) {
  server.host_.install_signal_handlers();
}

void Server::session_loop(int in_fd, int out_fd, bool is_socket) {
  FdLineReader reader(in_fd, session_hooks_);
  std::string line;
  while (reader.next_line(line)) {
    // A socket stream that dies mid-line left a torn prefix, not a
    // request: never parse (let alone execute) it. Stdio keeps the
    // historical final-unterminated-line behavior.
    if (is_socket && !reader.last_terminated()) break;
    if (line.empty() || line == "\r") continue;
    handle_line(line, out_fd, in_fd, is_socket, reader.buffered());
    if (host_.stopping() && is_socket) break;
  }
}

bool Server::send_line(int out_fd, std::string line) const {
  return write_line(out_fd, std::move(line), session_hooks_);
}

void Server::record_result_metrics(const api::SolveResult& result) {
  const std::string solver = result.solver.empty() ? "(none)" : result.solver;
  const double wall_us = std::max(0.0, result.wall_seconds) * 1e6;
  metrics_.histogram("solver." + solver + ".latency")
      .record_us(static_cast<std::uint64_t>(wall_us));
  for (const auto& [key, value] : result.diagnostics) {
    if (key == "evals") {
      metrics_.counter("solver." + solver + ".evals")
          .add(std::strtoull(value.c_str(), nullptr, 10));
      break;
    }
  }
}

void Server::handle_line(const std::string& line, int out_fd, int watch_fd,
                         bool is_socket, bool input_buffered) {
  stats_.record_request();
  // Zero point for the request's end-to-end latency histogram and its
  // parse span (everything until the work is dispatched counts as parse).
  const util::Stopwatch request_watch;
  io::JsonFields fields;
  try {
    fields = io::parse_flat_json(line);
  } catch (const io::ParseError& e) {
    stats_.record_error();
    send_line(out_fd, error_line("", e.what()));
    return;
  }
  const std::string id = peek(fields, "id");

  std::string type = "solve";
  for (const auto& [key, value] : fields) {
    if (key == "type") type = value;
  }
  if (type == "ping") {
    io::FlatJsonWriter out;
    out.field("type", "pong");
    if (!id.empty()) out.field("id", id);
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "health") {
    // Constant-time by contract: the router probes this at every health
    // interval, so it must answer instantly even when the pool is buried.
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    io::FlatJsonWriter out;
    out.field("type", "health");
    if (!id.empty()) out.field("id", id);
    out.field("pid", std::to_string(::getpid()));
    out.field("uptime_s", io::format_double_exact(uptime));
    out.field("in_flight", std::to_string(executor_.pending()));
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "stats") {
    io::FlatJsonWriter out;
    out.field("type", "stats");
    if (!id.empty()) out.field("id", id);
    for (const auto& [key, value] : stats_.snapshot()) out.field(key, value);
    out.field("jobs", std::to_string(executor_.jobs()));
    out.field("pending", std::to_string(executor_.pending()));
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (type == "metrics") {
    // The registry snapshot: summable counter/gauge/bucket fields (what a
    // router merges field-wise across the fleet) with the derived
    // p50/p90/p99 fields appended per histogram.
    metrics_.gauge("in_flight").set(executor_.pending());
    io::FlatJsonWriter out;
    out.field("type", "metrics");
    if (!id.empty()) out.field("id", id);
    for (const auto& [key, value] : obs::with_quantiles(metrics_.snapshot())) {
      out.field(key, value);
    }
    send_line(out_fd, std::move(out).str());
    return;
  }
  if (is_socket && (type == "solve" || type == "pareto") &&
      io::names_a_path(fields)) {
    // A network client never makes the server open one of its files.
    stats_.record_error();
    send_line(out_fd, error_line(id, "\"path\" is refused over the network; "
                                     "send the instance inline as \"problem\""));
    return;
  }
  if (type == "pareto") {
    std::optional<io::WireParetoRequest> wire;
    try {
      wire = io::parse_pareto_request(fields);
    } catch (const io::ParseError& e) {
      stats_.record_error();
      send_line(out_fd, error_line(id, e.what()));
      return;
    }
    // Reject unusable sweeps before spawning any work (the driver would
    // re-check, but an error line beats an empty front).
    if (const std::string error = api::validate_sweep(wire->request);
        !error.empty()) {
      stats_.record_error();
      send_line(out_fd, error_line(id, error));
      return;
    }

    // One source per sweep; the sweep-wide deadline arms inside the
    // driver. Executor::sweep blocks, so it runs on a session-side thread
    // (its grid points ride the shared pool — it must not run *on* the
    // pool) while this thread keeps the disconnect watch.
    util::CancelSource source;
    wire->request.base.cancel = source.token();
    // Everything up to the dispatch was parsing/validation; sweep point
    // requests inherit the context, so their cache_lookup/queue_wait/
    // bind/solve spans aggregate into this one trace.
    obs::TraceContext trace(peek(fields, "trace"), &metrics_);
    trace.record("parse", request_watch.elapsed_micros());
    wire->request.base.trace = &trace;
    stats_.record_sweep();
    std::future<api::ParetoFront> future =
        std::async(std::launch::async, [this, w = std::move(*wire)] {
          return executor_.sweep(w.problem, w.request);
        });
    const bool watching = is_socket && !input_buffered;
    await_with_watch(
        [&future](std::chrono::milliseconds interval) {
          return future.wait_for(interval) == std::future_status::ready;
        },
        source, watch_fd, watching);

    const api::ParetoFront front = future.get();
    // Every grid point was one solve through the pool: count each (a
    // disconnect mid-sweep is thus observable as `cancelled` growing by
    // the number of grid points it killed).
    for (const api::SweepEvaluation& evaluation : front.evaluations) {
      stats_.record_dispatch();
      stats_.record_result(evaluation.result);
      record_result_metrics(evaluation.result);
    }
    {
      const obs::SpanTimer format_span(&trace, "format");
      for (const std::size_t index : front.front) {
        const api::SweepEvaluation& evaluation = front.evaluations[index];
        send_line(
            out_fd,
            io::format_front_point(evaluation.result, evaluation.bound, id));
      }
      send_line(out_fd, io::format_pareto_summary(front, id));
    }
    const std::uint64_t total_us = request_watch.elapsed_micros();
    metrics_.histogram("request").record_us(total_us);
    if (trace_log_) trace_log_->write(trace, "pareto", id, total_us);
    return;
  }

  if (type != "solve") {
    stats_.record_error();
    send_line(out_fd, error_line(id, "unknown request type '" + type + "'"));
    return;
  }

  std::optional<io::WireSolveRequest> wire;
  try {
    wire = io::parse_solve_request(fields);
  } catch (const io::ParseError& e) {
    stats_.record_error();
    send_line(out_fd, error_line(id, e.what()));
    return;
  }

  // Every solve runs under its own source: the deadline (if any) arms
  // inside the plan, and the disconnect watch fires this source.
  util::CancelSource source;
  wire->request.cancel = source.token();
  // The context lives on this session stack until the future resolves —
  // exactly the lifetime request.hpp's trace contract requires.
  obs::TraceContext trace(peek(fields, "trace"), &metrics_);
  trace.record("parse", request_watch.elapsed_micros());
  wire->request.trace = &trace;
  stats_.record_dispatch();
  std::future<api::SolveResult> future = executor_.solve_async(
      std::move(wire->problem), std::move(wire->request));

  await_with_watch(
      [&future](std::chrono::milliseconds interval) {
        return future.wait_for(interval) == std::future_status::ready;
      },
      source, watch_fd, is_socket && !input_buffered);

  const api::SolveResult result = future.get();
  stats_.record_result(result);
  record_result_metrics(result);
  {
    const obs::SpanTimer format_span(&trace, "format");
    send_line(out_fd, io::format_result(result, id));
  }
  const std::uint64_t total_us = request_watch.elapsed_micros();
  metrics_.histogram("request").record_us(total_us);
  if (trace_log_) trace_log_->write(trace, "solve", id, total_us);
}

void Server::await_with_watch(
    const std::function<bool(std::chrono::milliseconds)>& ready,
    util::CancelSource& source, int watch_fd, bool watching) {
  // While the work is in flight, watch the connection. The watch only
  // makes sense on sockets: closing a TCP connection signals the client
  // abandoned its pending responses (the protocol contract — keep the
  // write side open until the answers arrive), whereas in --stdio mode
  // EOF on stdin merely ends the request stream while the stdout reader
  // is usually still there. Pipelined input means the client is
  // demonstrably alive (and the watch would misread the buffered bytes),
  // so the watch only runs on an idle connection.
  while (!ready(net::kWatchInterval)) {
    if (!watching) continue;
    switch (host_.watch(watch_fd)) {
      case net::Peer::Idle:
        break;
      case net::Peer::Busy:
        watching = false;  // a pipelined request arrived: alive
        break;
      case net::Peer::Gone:
        source.request_cancel();
        watching = false;
        stats_.record_disconnect_cancel();
        // Keep waiting: the worker returns a typed cancelled result, which
        // record_result counts even though the client will never read it.
        break;
    }
  }
}

}  // namespace pipeopt::server
