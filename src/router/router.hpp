#pragma once

/// \file router.hpp
/// pipeopt-router: the sharded front tier in front of N `pipeopt-server`
/// processes — the horizontal half of the serving story (CLI:
/// `pipeopt route --shards host:port,... | --spawn N`).
///
/// The router speaks the exact server wire protocol on its front side
/// (docs/PROTOCOL.md) and forwards almost every line verbatim to one
/// backend shard, streaming the response bytes back untouched — a routed
/// solve, batch stream or pareto stream is byte-identical to what a
/// single `pipeopt-server` would have answered. Three request types are
/// answered at the router itself:
///
///  * `{"type":"ping"}` — router liveness, answered inline.
///  * `{"type":"health"}` — router pid/uptime/in-flight plus shard counts.
///  * `{"type":"stats"}` — fanned out to every healthy shard; the shard
///    counters come back merged field-wise (io/stats_io.hpp), prefixed by
///    the router-level fields: shards, shards_up, routed, shed,
///    shed_expired, retries, restarts, shard_up_transitions,
///    shard_down_transitions, shard_lost_errors.
///  * `{"type":"metrics"}` — fanned out likewise; the shard metric
///    snapshots and the router's own (its `phase.relay` histogram and the
///    `retries_by_code.*` / `shed_expired` counters) merge bucket-wise
///    through `obs::merge_metrics_fields`, quantiles re-derived from the
///    merged buckets, prefixed by per-shard liveness fields
///    (`shard.<i>.up`, `shard.<i>.in_flight`, `shard.<i>.breaker_state`)
///    for the `pipeopt top` view.
///
/// Tracing (`--trace-log`): the router peeks each solve/pareto line's
/// optional `"trace"` id, generates one when absent and splices it into the
/// forwarded bytes, so the shard's span log and the router's share one id
/// per request (obs/trace.hpp). Responses are relayed untouched — routed
/// bytes stay identical with tracing on or off.
///
/// Routing is sticky by request identity: a solve line hashes its
/// canonical cache-key bytes (`io::format_solve_key` — already the
/// `api::SolveCache` key), a pareto line its canonical sweep form, so
/// byte-equivalent requests always land on the same shard and the
/// per-shard solve caches are shard-coherent for free — a fleet of
/// cache-enabled shards behaves like one big cache with no invalidation
/// protocol. An unparseable line hashes its raw bytes and is forwarded
/// anyway: the shard produces the exact error line a single server would.
/// So does a line naming its instance by `path`: the router never opens
/// the file, and the shard's refusal is the answer.
///
/// Robustness:
///
///  * Each shard carries a circuit breaker (see docs/RESILIENCE.md).
///    Failures — failed relay connects, connections that die before a
///    response byte, failed health probes — add strikes; at
///    `breaker_threshold` consecutive strikes the breaker opens and the
///    shard leaves rotation. An open breaker admits only timed half-open
///    health probes; `breaker_close_successes` consecutive successes
///    close it. Hard evidence short-circuits the ladder: a reaped child
///    opens the breaker at once, a spawn announce closes it. A request
///    whose sticky shard is open fails over to the next closed shard in
///    hash order. In `--spawn` mode the probe loop also reaps dead
///    children and restarts them on a fresh ephemeral port.
///  * Failover is budgeted by a shared `util::RetryPolicy`
///    (`--retries/--backoff-ms`; the default budget is one attempt per
///    shard plus one stale-connection retry) with capped exponential
///    backoff between attempts, each attempt targeting a shard not yet
///    tried for this request.
///  * Deadline-aware admission: a request whose relative `deadline_ms`
///    has already elapsed by the time a slot frees is shed with a typed
///    `{"type":"error","code":"expired"}` line instead of forwarded —
///    work the client stopped waiting for never burns a shard slot.
///  * Each shard carries a bounded in-flight window. A request whose
///    sticky shard is saturated waits (backpressure — stickiness is worth
///    more than latency while any slot may free); when EVERY healthy
///    shard is saturated it is shed immediately with a typed
///    `{"type":"error","code":"overloaded"}` line, and with no healthy
///    shard at all with `code":"unavailable"`. The connection survives
///    either way.
///  * A shard that dies mid-request: if no response byte was relayed yet
///    the request is retried — first on a fresh connection to the same
///    shard (a restarted shard's stale connections heal transparently),
///    then failing over — and only a mid-stream loss surfaces as a typed
///    `{"type":"error","code":"shard-lost"}` line.
///  * While a forward is in flight the session watches the client
///    connection with the same `net::SessionHost::watch` the server uses;
///    a vanished client gets its shard connection closed, which
///    propagates the disconnect (and the in-flight cancellation) to the
///    shard.
///
/// The router is a per-connection handler on a `net::SessionHost`, like
/// the server, so shutdown works the same way: `shutdown()` (wired to
/// SIGINT/SIGTERM by `install_signal_handlers`) stops accepting,
/// half-closes sessions and lets in-flight forwards finish and flush. Then
/// the health loop stops and, in spawn mode, the shards get SIGTERM and
/// are reaped: requests drain first, shards second.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "net/fault.hpp"
#include "net/session_host.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fdio.hpp"
#include "util/retry.hpp"
#include "util/timing.hpp"

namespace pipeopt::router {

/// One backend `pipeopt-server` endpoint.
struct ShardAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  /// Listen address of the front tier.
  std::string host = "127.0.0.1";
  /// Listen port; 0 picks an ephemeral port (read it back via `port()`).
  std::uint16_t port = 0;
  /// Endpoint mode: route across these already-running servers. Mutually
  /// exclusive with `spawn`.
  std::vector<ShardAddress> shards;
  /// Spawn mode: fork/exec this many local `pipeopt-server` children on
  /// ephemeral ports and supervise them (restart on death).
  std::size_t spawn = 0;
  /// Binary to exec in spawn mode. The default re-execs the running
  /// binary (Linux), which is exactly right for the `pipeopt route` CLI.
  std::string spawn_binary = "/proc/self/exe";
  /// `serve --jobs` for spawned shards; 0 = hardware concurrency.
  std::size_t spawn_jobs = 0;
  /// `serve --cache-entries` for spawned shards; 0 = cache off.
  std::size_t spawn_cache_entries = 0;
  /// Max in-flight requests per shard before backpressure/shedding.
  std::size_t window = 64;
  /// Health probe period (also the shard-restart detection latency).
  std::chrono::milliseconds health_interval{250};
  /// Socket send/receive timeout on health probes: a wedged shard must
  /// fail the probe, not hang the probe loop.
  std::chrono::milliseconds probe_timeout{2000};
  /// listen(2) backlog of the front tier.
  int backlog = 128;
  /// Span-log path of the router itself (`route --trace-log FILE`); empty
  /// = tracing off. When set, every forwarded solve/pareto request appends
  /// one JSONL line (its `relay` span plus the shard index), and the
  /// router splices a generated `"trace"` id into forwarded lines that
  /// carry none — see the file comment. Routed bytes are unchanged.
  std::string trace_log{};
  /// Spawn mode: per-shard span-log prefix; shard i logs to
  /// `<prefix>.<i>.jsonl` (passed as the child's `serve --trace-log`).
  /// Empty = shards run untraced.
  std::string spawn_trace_log{};
  /// Extra forward attempts after the first per request (`route
  /// --retries`); 0 = auto: one attempt per shard plus one
  /// stale-connection retry (the historical failover budget).
  std::size_t retries = 0;
  /// Base backoff between failed forward attempts (`route --backoff-ms`);
  /// doubles per attempt with deterministic jitter (util/retry.hpp), 0 =
  /// no delay.
  std::chrono::milliseconds retry_backoff{5};
  /// Consecutive failures (strikes) that open a shard's circuit breaker.
  std::size_t breaker_threshold = 3;
  /// Consecutive successes that close an open/half-open breaker (and
  /// clear accumulated strikes on a closed one).
  std::size_t breaker_close_successes = 2;
  /// Minimum time an open breaker holds before half-open probes resume
  /// (`route --breaker-cooldown-ms`); 0 = probe at the next interval.
  std::chrono::milliseconds breaker_cooldown{0};
  /// Deterministic fault injection (`route --fault-spec seed:prob:kinds`,
  /// net/fault.hpp grammar); empty = off. `close` drops freshly accepted
  /// front connections, `refuse` fails relay connects, `truncate`/
  /// `partial`/`delay` hook the front and relay read/write paths. Health
  /// probes and stats fan-out stay un-hooked so fault campaigns are
  /// deterministic per request stream.
  std::string fault_spec{};
};

/// Circuit-breaker state of one shard (docs/RESILIENCE.md).
enum class BreakerState {
  Closed = 0,    ///< in rotation
  HalfOpen = 1,  ///< out of rotation; probes may close it
  Open = 2,      ///< out of rotation; probes gated by the cooldown
};

/// Live view of one shard, for announcements, tests and the CLI.
struct ShardInfo {
  std::string host;
  std::uint16_t port = 0;
  pid_t pid = -1;  ///< -1 in endpoint mode
  bool healthy = false;  ///< derived: breaker == Closed
  std::size_t in_flight = 0;
  BreakerState breaker = BreakerState::Closed;
  std::uint64_t up_transitions = 0;
  std::uint64_t down_transitions = 0;
};

class Router {
 public:
  /// Validates options; spawn-mode children are NOT started here but in
  /// `listen()` (so a constructed-but-never-served router owns no
  /// processes). \throws std::runtime_error on empty/ambiguous shard
  /// configuration.
  explicit Router(RouterOptions options);
  /// Joins everything still running (via shutdown) and, in spawn mode,
  /// terminates and reaps the children.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds and listens, spawns the shards (spawn mode) and starts the
  /// health thread; returns the bound front port. \throws
  /// std::runtime_error on bind or spawn failures.
  std::uint16_t listen();

  /// Accept loop until `shutdown()`; implies `listen()`. When this
  /// returns, every session is joined, every response flushed, and spawn
  /// mode shards are terminated and reaped.
  void serve();

  /// Initiates graceful shutdown (see the file comment). Thread-safe,
  /// idempotent, returns immediately.
  void shutdown();

  /// Routes SIGINT/SIGTERM to `shutdown()` (one router per process; the
  /// last call wins) and ignores SIGPIPE.
  static void install_signal_handlers(Router& router);

  [[nodiscard]] std::uint16_t port() const noexcept { return host_.port(); }
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::vector<ShardInfo> shard_infos() const;

  // Router-level counters (the `stats` fields of the same name).
  [[nodiscard]] std::uint64_t routed() const noexcept { return routed_; }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }
  [[nodiscard]] std::uint64_t shed_expired() const noexcept {
    return shed_expired_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }
  [[nodiscard]] std::uint64_t shard_lost_errors() const noexcept {
    return shard_lost_errors_;
  }
  [[nodiscard]] std::uint64_t up_transitions() const;
  [[nodiscard]] std::uint64_t down_transitions() const;

  /// The router's own metric registry — what its `{"type":"metrics"}`
  /// answer merges in ahead of the shard snapshots.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// The fault injector behind `--fault-spec`; nullptr when injection is
  /// off (chaos tests assert on its injected() counters).
  [[nodiscard]] net::FaultInjector* fault_injector() noexcept {
    return fault_.get();
  }

 private:
  /// One backend shard. Endpoint, health and window state are guarded by
  /// `state_mutex_` (the endpoint moves when a spawned shard restarts).
  struct Shard {
    std::string host;
    std::uint16_t port = 0;
    pid_t pid = -1;       ///< spawn mode only; -1 = no live child
    int stdout_fd = -1;   ///< spawn mode: the child's announce pipe
    bool healthy = true;  ///< derived: breaker == Closed (routing predicate)
    std::size_t in_flight = 0;
    std::uint64_t up_transitions = 0;
    std::uint64_t down_transitions = 0;
    // Circuit breaker (docs/RESILIENCE.md). `strikes` counts failures not
    // yet annulled by `breaker_close_successes` consecutive successes;
    // `opened_at` gates half-open probes behind the cooldown.
    BreakerState breaker = BreakerState::Closed;
    std::size_t strikes = 0;
    std::size_t consecutive_ok = 0;
    std::chrono::steady_clock::time_point opened_at{};
  };

  /// One cached session→shard connection (its reader keeps the framing
  /// buffer across requests).
  struct ShardConn {
    int fd = -1;
    std::unique_ptr<util::FdLineReader> reader;
  };

  enum class Admit { Ok, Overloaded, Unavailable, ClientGone, Expired,
                     Exhausted };
  enum class Relay { Done, ClientGone };

  /// One client connection; `conns` holds its shard connections, one
  /// slot per shard, opened lazily and closed when the session ends.
  void session_loop(int client);
  /// Handles one client line: router-level answers or `forward_line`.
  Relay handle_line(const std::string& line, int client,
                    std::vector<ShardConn>& conns, bool input_buffered);
  /// Forwards one line to its sticky shard and relays the response
  /// stream; implements the RetryPolicy-budgeted retry/failover scan,
  /// deadline-aware admission and shedding. `deadline_ms` is the parsed
  /// wire field (0 = none), measured from `arrival`.
  Relay forward_line(const std::string& line, const std::string& id,
                     bool streamed, std::size_t key_hash, int client,
                     std::vector<ShardConn>& conns, bool input_buffered,
                     std::uint64_t deadline_ms,
                     const util::Stopwatch& arrival);
  /// Sticky slot acquisition under backpressure (see file comment); while
  /// waiting it keeps the client-disconnect watch (`watching`) and the
  /// request deadline. `tried` excludes shards that already failed this
  /// request (Exhausted when every healthy shard is excluded).
  Admit acquire_slot(std::size_t key_hash, std::size_t& shard_index,
                     int client_fd, bool watching,
                     const std::vector<bool>& tried,
                     std::uint64_t deadline_ms,
                     const util::Stopwatch& arrival);
  void release_slot(std::size_t shard_index);
  /// Hard evidence the shard is gone (reaped child, lost endpoint):
  /// opens the breaker immediately.
  void mark_down(std::size_t shard_index);
  /// Hard evidence the shard is up (spawn announce): closes the breaker
  /// immediately.
  void mark_up(std::size_t shard_index);
  /// Graded breaker inputs (request-path failures, probe outcomes).
  void record_failure(std::size_t shard_index);
  void record_success(std::size_t shard_index);
  bool ensure_conn(ShardConn& conn, std::size_t shard_index);
  /// Front-session write honoring the fault hooks.
  bool send_front(int fd, std::string line) const;
  /// One `{"type":"<type>"}` round trip on a fresh probe connection
  /// (connect and IO bounded by `probe_timeout`, no fault hooks): the
  /// shard's answer line when it arrived whole and typed `type`.
  std::optional<std::string> ask_shard(const std::string& host,
                                       std::uint16_t port,
                                       const std::string& type) const;
  /// `ask_shard` on every healthy shard of `fleet`; the answers in order.
  std::vector<std::string> fan_out(const std::vector<ShardInfo>& fleet,
                                   const std::string& type) const;
  /// `{"type":"stats"}`: fan out, merge, answer.
  void answer_stats(const std::string& id, int out_fd);
  /// `{"type":"metrics"}`: fan out, bucket-wise merge with the router's
  /// own snapshot, re-derive quantiles, answer (see the file comment).
  void answer_metrics(const std::string& id, int out_fd);
  void answer_health(const std::string& id, int out_fd);

  void health_loop();
  /// One probe/restart pass over every shard.
  void check_shards();
  /// Fork/execs one shard server and parses its announced port. \throws
  /// std::runtime_error when the child fails to come up.
  void spawn_shard(std::size_t shard_index);
  void stop_health_thread();
  void terminate_children();

  RouterOptions options_;
  std::chrono::steady_clock::time_point started_;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex state_mutex_;
  std::condition_variable state_changed_;  ///< slots freed / health flips

  std::thread health_thread_;
  std::mutex health_mutex_;
  std::condition_variable health_wake_;
  bool health_stop_ = false;

  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceLog> trace_log_;  ///< null = tracing off
  std::unique_ptr<net::FaultInjector> fault_;  ///< null = injection off
  const util::IoHooks* front_hooks_ = nullptr;  ///< fault_'s front_io()
  const util::IoHooks* relay_hooks_ = nullptr;  ///< fault_'s relay_io()

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_expired_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> shard_lost_errors_{0};

  /// Listener, session threads, drain and client watch. Declared last: it
  /// is destroyed first, so no session outlives the state it uses.
  net::SessionHost host_;
};

}  // namespace pipeopt::router
