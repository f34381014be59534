#include "net/session_host.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <stdexcept>
#include <utility>

namespace pipeopt::net {
namespace {

#ifdef POLLRDHUP
constexpr short kHupEvents = POLLRDHUP | POLLHUP | POLLERR;
#else
constexpr short kHupEvents = POLLHUP | POLLERR;
#endif

/// The wake-pipe write end signals are routed to (-1 = none). Handlers may
/// only touch async-signal-safe state, hence one byte and nothing else.
std::atomic<int> g_signal_wake_fd{-1};

void signal_to_pipe(int) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

SessionHost::SessionHost(std::string owner, FaultInjector* fault,
                         Handler handler)
    : owner_(std::move(owner)), fault_(fault), handler_(std::move(handler)) {
  if (::pipe2(wake_, O_CLOEXEC) != 0) {
    throw std::runtime_error(owner_ + ": cannot create wake pipe");
  }
}

SessionHost::~SessionHost() {
  int routed = wake_[1];
  g_signal_wake_fd.compare_exchange_strong(routed, -1);
  shutdown();
  reap(/*all=*/true);
  if (listener_.fd >= 0) ::close(listener_.fd);
  ::close(wake_[0]);
  ::close(wake_[1]);
}

std::uint16_t SessionHost::listen(const std::string& host, std::uint16_t port,
                                  int backlog) {
  if (listener_.fd < 0) listener_ = listen_tcp(owner_, host, port, backlog);
  return listener_.port;
}

void SessionHost::serve() {
  while (!stopping()) {
    pollfd fds[2] = {{listener_.fd, POLLIN, 0}, {wake_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown() or a signal woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = accept_tcp(listener_.fd);
    if (fd < 0) continue;
    if (fault_ != nullptr && fault_->accept_should_close()) {
      // Injected accept-then-close: the peer sees its connection die
      // before a byte moves, so the request provably never ran and a
      // retrying client is always safe.
      ::close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    raw->fd = fd;
    raw->thread = std::thread([this, raw, fd] {
      handler_(fd);
      {
        const std::lock_guard<std::mutex> lock(sessions_mutex_);
        ::close(raw->fd);
        raw->fd = -1;
      }
      raw->done.store(true, std::memory_order_release);
    });
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.push_back(std::move(session));
    }
    reap(/*all=*/false);
  }
  stopping_.store(true);
  if (listener_.fd >= 0) {
    ::close(listener_.fd);
    listener_.fd = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& session : sessions_) {
      if (session->fd >= 0) ::shutdown(session->fd, SHUT_RD);
    }
  }
  reap(/*all=*/true);
}

void SessionHost::shutdown() {
  stopping_.store(true);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
}

void SessionHost::install_signal_handlers() {
  g_signal_wake_fd.store(wake_[1], std::memory_order_relaxed);
  struct sigaction action{};
  action.sa_handler = signal_to_pipe;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

Peer SessionHost::watch(int fd) const {
  if (stopping()) return Peer::Idle;
  pollfd probe{fd, static_cast<short>(POLLIN | kHupEvents), 0};
  if (::poll(&probe, 1, 0) <= 0) return Peer::Idle;
  if (probe.revents & POLLIN) {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n > 0) return Peer::Busy;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return Peer::Idle;
    }
  }
  // Orderly EOF, reset or hang-up: gone, unless the drain half-closed the
  // socket since the first check (its EOF reads exactly like a client
  // leaving).
  return stopping() ? Peer::Idle : Peer::Gone;
}

void SessionHost::reap(bool all) {
  std::vector<std::unique_ptr<Session>> finished;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
  }
}

}  // namespace pipeopt::net
