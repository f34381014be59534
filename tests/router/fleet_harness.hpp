#pragma once

/// Shared router-test fixtures: a listening `Router` on a background
/// thread, and a whole in-process fleet (N `TestServer` shards behind an
/// endpoint-mode router). Used by the router end-to-end, observability,
/// and chaos suites; spawn mode forks real processes and is exercised by
/// tools/ci.sh instead.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt::router::testing_fleet {

/// A listening router with its accept loop on a background thread.
class TestRouter {
 public:
  explicit TestRouter(RouterOptions options) : router_(std::move(options)) {
    port_ = router_.listen();
    thread_ = std::thread([this] { router_.serve(); });
  }

  ~TestRouter() {
    router_.shutdown();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] Router& router() noexcept { return router_; }

 private:
  Router router_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// N in-process shard servers plus a router across them (endpoint mode).
class TestFleet {
 public:
  explicit TestFleet(std::size_t shard_count,
                     server::ServerOptions shard_options = {},
                     RouterOptions router_options = {}) {
    if (shard_options.jobs == 0) shard_options.jobs = 2;
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(
          std::make_unique<testing_wire::TestServer>(shard_options));
      router_options.shards.push_back(
          ShardAddress{"127.0.0.1", shards_.back()->port()});
    }
    router_ = std::make_unique<TestRouter>(std::move(router_options));
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return router_->port(); }
  [[nodiscard]] Router& router() noexcept { return router_->router(); }
  [[nodiscard]] testing_wire::TestServer& shard(std::size_t i) {
    return *shards_[i];
  }
  void kill_shard(std::size_t i) { shards_[i].reset(); }

 private:
  std::vector<std::unique_ptr<testing_wire::TestServer>> shards_;
  std::unique_ptr<TestRouter> router_;
};

using testing_wire::value_of;

inline bool has_key(const io::JsonFields& fields, const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return true;
  }
  return false;
}

}  // namespace pipeopt::router::testing_fleet
