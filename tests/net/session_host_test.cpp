/// net/session_host.hpp: the watch tells idle, busy and gone apart and
/// stands down while draining; the drain lets a session finish its
/// in-flight reply before serve() returns; the accept-close fault drops a
/// connection before any handler runs; a routed SIGTERM ends the accept
/// loop, and the route dies with its host.

#include "net/session_host.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include "util/fdio.hpp"

namespace pipeopt::net {
namespace {

/// A connected local stream pair, closed on scope exit.
struct Pair {
  int fds[2] = {-1, -1};
  Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~Pair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

TEST(SessionHost, WatchTellsIdleBusyAndGone) {
  const SessionHost host("test", nullptr, [](int) {});
  Pair pair;
  EXPECT_EQ(host.watch(pair.fds[0]), Peer::Idle);
  ASSERT_EQ(::write(pair.fds[1], "x", 1), 1);
  EXPECT_EQ(host.watch(pair.fds[0]), Peer::Busy);
  char byte = 0;
  ASSERT_EQ(::read(pair.fds[0], &byte, 1), 1);  // the peek consumed nothing
  EXPECT_EQ(byte, 'x');
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  EXPECT_EQ(host.watch(pair.fds[0]), Peer::Gone);
}

TEST(SessionHost, WatchStaysIdleWhileDraining) {
  SessionHost host("test", nullptr, [](int) {});
  Pair pair;
  host.shutdown();
  ::shutdown(pair.fds[0], SHUT_RD);  // what the drain does to a session
  EXPECT_EQ(host.watch(pair.fds[0]), Peer::Idle);
}

TEST(SessionHost, DrainLetsTheSessionFinishItsReply) {
  std::atomic<bool> received{false};
  std::atomic<bool> replied{false};
  SessionHost host("test", nullptr, [&received, &replied](int fd) {
    util::FdLineReader reader(fd);
    std::string line;
    while (reader.next_line(line)) {
      received = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));  // work
      util::write_line(fd, "re:" + line);
      replied = true;
    }
  });
  const std::uint16_t port = host.listen("127.0.0.1", 0, 8);
  std::thread serving([&host] { host.serve(); });

  const int client = connect_tcp("127.0.0.1", port, std::chrono::seconds(10));
  ASSERT_GE(client, 0);
  ASSERT_TRUE(util::write_line(client, "a"));
  // Shut down as soon as the request is in, while its reply is pending.
  while (!received) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  host.shutdown();
  serving.join();  // returns only once the session is joined
  EXPECT_TRUE(replied);

  util::FdLineReader reader(client);
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  EXPECT_EQ(line, "re:a");
  EXPECT_FALSE(reader.next_line(line));  // then EOF: the host closed it
  ::close(client);
}

TEST(SessionHost, AcceptCloseFaultDropsTheConnectionBeforeTheHandler) {
  const auto fault = make_fault_injector("test", "1:1:close");
  std::atomic<int> handled{0};
  SessionHost host("test", fault.get(), [&handled](int) { ++handled; });
  const std::uint16_t port = host.listen("127.0.0.1", 0, 8);
  std::thread serving([&host] { host.serve(); });

  const int client = connect_tcp("127.0.0.1", port, std::chrono::seconds(10));
  ASSERT_GE(client, 0);
  util::FdLineReader reader(client);
  std::string line;
  EXPECT_FALSE(reader.next_line(line));  // closed before a byte moved
  ::close(client);
  host.shutdown();
  serving.join();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(fault->injected(FaultKind::Close), 1u);
}

TEST(SessionHost, RoutedSignalEndsTheAcceptLoopAndDiesWithItsHost) {
  {
    SessionHost host("test", nullptr, [](int) {});
    host.listen("127.0.0.1", 0, 8);
    host.install_signal_handlers();
    std::thread serving([&host] { host.serve(); });
    ASSERT_EQ(::raise(SIGTERM), 0);
    serving.join();  // the signal's wake byte ended the loop
    EXPECT_TRUE(host.stopping());
  }
  // The host is gone, and so is the route: the handler has nowhere to
  // write and the process lives on.
  ASSERT_EQ(::raise(SIGTERM), 0);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

}  // namespace
}  // namespace pipeopt::net
