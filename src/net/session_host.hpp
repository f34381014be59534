#pragma once

/// \file session_host.hpp
/// The one connection host under `serve` and `route`. A tier hands it a
/// per-connection handler; the host owns the rest, once for both tiers:
/// the listener and accept loop (the fault shim's accept-close decision
/// runs on the accept thread, before any session thread starts, so seeded
/// campaigns replay unchanged), one thread per session and its reaping,
/// the wake pipe SIGINT/SIGTERM are routed to, the drain, and the
/// disconnect watch.
///
/// The drain closes the listener (late connects are refused, not parked
/// in the backlog), half-closes (`SHUT_RD`) every live session so its next
/// read sees EOF, and joins them all: in-flight requests finish and flush.
/// The host closes a session's fd after its handler returns, under the
/// lock the drain takes for its half-close, so the drain never touches a
/// recycled fd. While draining, `watch` reports Idle: no tier reads its
/// own half-close as a client leaving.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.hpp"
#include "net/socket.hpp"

namespace pipeopt::net {

/// How long a session waits on its in-flight work between two watches.
inline constexpr std::chrono::milliseconds kWatchInterval{10};

/// What `SessionHost::watch` saw on a session socket.
enum class Peer {
  Idle,  ///< nothing to report (or the host is draining)
  Gone,  ///< orderly EOF, reset or hang-up: the client left
  Busy,  ///< a pipelined request is buffered: the client is alive
};

class SessionHost {
 public:
  /// Serves one accepted connection until it ends; runs on the session's
  /// own thread. The host closes `fd` afterwards.
  using Handler = std::function<void(int fd)>;

  /// `owner` prefixes error messages ("pipeopt-server"); `fault` (may be
  /// null, must outlive the host) decides accept-then-close drops.
  /// \throws std::runtime_error when the wake pipe cannot be created.
  SessionHost(std::string owner, FaultInjector* fault, Handler handler);
  /// Shuts down, joins every session and clears the signal route when it
  /// points here.
  ~SessionHost();

  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Binds and listens (see `listen_tcp`); returns the bound port. A host
  /// already listening returns its port. \throws std::runtime_error.
  std::uint16_t listen(const std::string& host, std::uint16_t port,
                       int backlog);

  /// Accept loop until `shutdown()` or a routed signal, then the drain;
  /// returns once every session is joined.
  void serve();

  /// Ends the accept loop (see the file comment). Thread-safe, idempotent,
  /// returns immediately.
  void shutdown();

  /// Routes SIGINT/SIGTERM to this host (one route per process; the last
  /// call wins) and ignores SIGPIPE, so a client that vanishes
  /// mid-response surfaces as a write error, not a process kill.
  void install_signal_handlers();

  /// True once shutdown began: sessions finish their current request and
  /// stop reading.
  [[nodiscard]] bool stopping() const noexcept { return stopping_.load(); }

  /// One non-blocking look at session socket `fd` (see `Peer`); Idle while
  /// draining.
  [[nodiscard]] Peer watch(int fd) const;

  /// The bound port; 0 before `listen()`.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port; }

 private:
  struct Session {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  /// Joins sessions that finished; `all` joins the rest too.
  void reap(bool all);

  std::string owner_;
  FaultInjector* fault_;
  Handler handler_;
  Listener listener_;
  int wake_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace pipeopt::net
