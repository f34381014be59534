/// Shared wire-level test harness: an in-process listening server on a
/// background thread, a minimal blocking JSONL client, the Table 1/2
/// problem grid, the "needle" instance (a deterministically long
/// branch-and-bound search for cancellation/saturation tests), a temp file
/// and the drain and `path`-refusal checks both tiers must pass. Used by
/// the server suite and the router suite — both speak the same protocol,
/// so they share one harness.

#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "gen/random_instances.hpp"
#include "io/json.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "tests/support/grid_fixtures.hpp"
#include "util/fdio.hpp"

namespace pipeopt::testing_wire {

/// The Table 1/2 grid, shared with every other differential suite.
using testing_support::table_grid;

/// A listening server with its accept loop on a background thread.
class TestServer {
 public:
  explicit TestServer(std::size_t jobs = 2)
      : TestServer(server::ServerOptions{.jobs = jobs}) {}

  explicit TestServer(server::ServerOptions options)
      : server_(std::move(options)) {
    ::signal(SIGPIPE, SIG_IGN);  // a test client may vanish mid-response
    port_ = server_.listen();
    thread_ = std::thread([this] { server_.serve(); });
  }

  ~TestServer() {
    server_.shutdown();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] server::Server& server() noexcept { return server_; }

  /// Joins the accept loop (after shutdown()): proves serve() returned.
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  server::Server server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Minimal blocking JSONL client.
class WireClient {
 public:
  // The timeout makes a hung server fail the test, not the suite.
  explicit WireClient(std::uint16_t port)
      : fd_(net::connect_tcp("127.0.0.1", port, std::chrono::seconds(30))),
        reader_(fd_) {
    connected_ = fd_ >= 0;
  }

  ~WireClient() { close(); }

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  void send_line(const std::string& line) {
    ASSERT_TRUE(util::write_line(fd_, line));
  }

  /// Next response line; nullopt on EOF/timeout.
  std::optional<std::string> recv_line() {
    std::string line;
    if (!reader_.next_line(line)) return std::nullopt;
    return line;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  util::FdLineReader reader_;
};

/// First value for `key` in a parsed JSONL line; nullopt when absent.
inline std::optional<std::string> value_of(const io::JsonFields& fields,
                                           const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return std::nullopt;
}

/// A fresh empty file under /tmp, removed with the object.
class TempPath {
 public:
  TempPath() {
    char name[] = "/tmp/pipeopt_test_XXXXXX";
    const int fd = ::mkstemp(name);
    if (fd >= 0) ::close(fd);
    path_ = name;
  }
  ~TempPath() { std::remove(path_.c_str()); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// The needle: a deterministically long branch-and-bound search (see
/// executor_test.cpp for the calibration guard proving > 10^7 nodes).
inline core::Problem needle_instance() {
  std::vector<core::StageSpec> cheap(5, {0.01, 0.0});
  std::vector<core::StageSpec> tail = cheap;
  tail.back().output_size = 100.0;
  std::vector<core::Application> apps;
  apps.emplace_back(0.0, cheap, 1.0, "A");
  apps.emplace_back(0.0, tail, 1.0, "B");
  const std::size_t p = 12;
  std::vector<core::Processor> procs(p, core::Processor({1.0}));
  std::vector<std::vector<double>> link(p, std::vector<double>(p, 1.0));
  std::vector<std::vector<double>> in(2, std::vector<double>(p, 1.0));
  std::vector<std::vector<double>> out(2, std::vector<double>(p, 1.0));
  for (std::size_t u = 0; u < p; ++u) out[1][u] = 0.5 + 0.09 * u;
  return core::Problem(std::move(apps),
                       core::Platform(std::move(procs), std::move(link),
                                      std::move(in), std::move(out)),
                       core::CommModel::Overlap);
}

inline api::SolveRequest needle_request() {
  api::SolveRequest request;
  request.solver = "branch-and-bound";
  request.kind = api::MappingKind::OneToOne;
  // Large enough that only cancellation ends the search in test time, small
  // enough that a cancellation bug stalls minutes, not forever.
  request.node_budget = 1'000'000'000;
  return request;
}

/// Canonical wall-less wire line for comparing results across processes.
inline std::string comparable(const api::SolveResult& result) {
  return io::format_result(result, "", /*include_wall=*/false);
}

inline std::string comparable(const std::string& wire_line) {
  return comparable(io::parse_result_line(wire_line).result);
}

/// Sends a needle solve with `deadline_ms` 500 to the listener at `port`,
/// waits until `admitted()`, calls `shutdown()`, and expects the drain to
/// deliver the typed deadline result (limit-exceeded, cancelled) rather
/// than drop the connection.
inline void expect_drain_delivers_in_flight_result(
    std::uint16_t port, const std::function<bool()>& admitted,
    const std::function<void()>& shutdown) {
  WireClient client(port);
  ASSERT_TRUE(client.connected());
  api::SolveRequest request = needle_request();
  request.deadline_ms = 500;
  client.send_line(io::format_solve_request(needle_instance(), request, "d1"));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!admitted() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(admitted());
  shutdown();
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value()) << "the drain dropped an in-flight request";
  const io::WireResult wire = io::parse_result_line(*response);
  EXPECT_EQ(wire.id, "d1");
  EXPECT_EQ(wire.result.status, api::SolveStatus::LimitExceeded);
  bool cancelled = false;
  for (const auto& [key, value] : wire.result.diagnostics) {
    cancelled |= key == "cancelled";
  }
  EXPECT_TRUE(cancelled);
}

/// Sends `solve` and `pareto` lines naming a file by `path` to the listener
/// at `port`. The file's first line is a marker: each reply must be an
/// error without a `code`, echo the id, and carry none of the file's bytes.
inline void expect_path_refused(std::uint16_t port) {
  const TempPath file;
  const std::string marker = "pipeopt-path-marker-7f3a";
  std::ofstream(file.str()) << marker << "\n";
  const std::string path = io::json_quote(file.str());
  WireClient client(port);
  ASSERT_TRUE(client.connected());
  const std::vector<std::pair<std::string, std::string>> lines = {
      {"p1", R"({"type":"solve","id":"p1","path":)" + path + "}"},
      {"p2", R"({"type":"pareto","id":"p2","sweep_bounds":"1,2","path":)" +
                 path + "}"}};
  for (const auto& [id, line] : lines) {
    client.send_line(line);
    const auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value()) << line;
    EXPECT_EQ(reply->find(marker), std::string::npos) << *reply;
    const io::JsonFields fields = io::parse_flat_json(*reply);
    EXPECT_EQ(value_of(fields, "type"), "error") << *reply;
    EXPECT_EQ(value_of(fields, "id"), id) << *reply;
    EXPECT_EQ(value_of(fields, "code"), std::nullopt) << *reply;
  }
}

}  // namespace pipeopt::testing_wire
