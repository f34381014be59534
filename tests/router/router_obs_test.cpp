// Observability through the router: {"type":"metrics"} fans out over the
// fleet and merges shard histograms bucket-wise (quantiles re-derived from
// the union distribution, not averaged), and one trace id stitches the
// router's span log to the serving shard's — whether the client supplied
// the id or the router generated it.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/motivating_example.hpp"
#include "io/json.hpp"
#include "io/request_io.hpp"
#include "router/router.hpp"
#include "server/server.hpp"
#include "tests/router/fleet_harness.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt::router {
namespace {

using server::ServerOptions;
using testing_fleet::TestRouter;
using testing_fleet::has_key;
using testing_wire::TempPath;
using testing_wire::TestServer;
using testing_wire::WireClient;
using testing_wire::table_grid;

/// First value for `key`, "" when absent (these assertions never need to
/// tell the two apart).
std::string value_of(const io::JsonFields& fields, const std::string& key) {
  return testing_fleet::value_of(fields, key).value_or("");
}

std::string with_trace(std::string line, const std::string& trace_id) {
  line.insert(1, "\"trace\":\"" + trace_id + "\",");
  return line;
}

/// All span-log lines of `path`, parsed.
std::vector<io::JsonFields> read_span_log(const std::string& path) {
  std::vector<io::JsonFields> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(io::parse_flat_json(line));
  return lines;
}

bool log_has_trace(const std::vector<io::JsonFields>& lines,
                   const std::string& trace_id) {
  for (const io::JsonFields& fields : lines) {
    if (value_of(fields, "trace") == trace_id) return true;
  }
  return false;
}

TEST(Router, MetricsFanOutMergesShardHistogramsBucketWise) {
  std::vector<std::unique_ptr<TestServer>> shards;
  RouterOptions options;
  for (std::size_t i = 0; i < 2; ++i) {
    shards.push_back(
        std::make_unique<TestServer>(ServerOptions{.jobs = 2}));
    options.shards.push_back(ShardAddress{"127.0.0.1", shards[i]->port()});
  }
  TestRouter router(std::move(options));
  WireClient client(router.port());
  ASSERT_TRUE(client.connected());

  const std::vector<core::Problem> grid = table_grid(2);
  std::size_t solves = 0;
  for (const core::Problem& problem : grid) {
    client.send_line(io::format_solve_request(problem, api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());
    ++solves;
  }

  client.send_line(R"({"type":"metrics","id":"m"})");
  const std::optional<std::string> response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "metrics");
  EXPECT_EQ(value_of(fields, "id"), "m");
  EXPECT_EQ(value_of(fields, "shards"), "2");
  EXPECT_EQ(value_of(fields, "shards_up"), "2");
  EXPECT_EQ(value_of(fields, "shard.0.up"), "1");
  EXPECT_EQ(value_of(fields, "shard.1.up"), "1");
  // The merged request histogram sums the shards' bucket counts: every
  // routed solve landed on exactly one shard, so the fleet total is the
  // number of solves no matter how the key hash spread them.
  EXPECT_EQ(value_of(fields, "request.n"), std::to_string(solves));
  // Quantiles are re-derived from the merged buckets — exactly one set.
  std::size_t p50_fields = 0;
  for (const auto& [key, value] : fields) {
    if (key == "request.p50_us") ++p50_fields;
  }
  EXPECT_EQ(p50_fields, 1u);
  // The router's own relay histogram rides in the same merged block.
  EXPECT_EQ(value_of(fields, "phase.relay.n"), std::to_string(solves));
  // Shards run with the cache off: no shard ever recorded a cache_lookup
  // span, so the merged fleet view must not invent the field (the
  // absence-is-information rule survives the merge).
  EXPECT_FALSE(has_key(fields, "phase.cache_lookup.n"));
}

TEST(Router, MetricsMergeCarriesCacheLookupWhenShardsCacheOn) {
  std::vector<std::unique_ptr<TestServer>> shards;
  RouterOptions options;
  for (std::size_t i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<TestServer>(
        ServerOptions{.jobs = 2, .cache_entries = 64}));
    options.shards.push_back(ShardAddress{"127.0.0.1", shards[i]->port()});
  }
  TestRouter router(std::move(options));
  WireClient client(router.port());
  ASSERT_TRUE(client.connected());

  const std::string line =
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{});
  for (int i = 0; i < 2; ++i) {
    client.send_line(line);
    ASSERT_TRUE(client.recv_line().has_value());
  }
  client.send_line(R"({"type":"metrics"})");
  const std::optional<std::string> response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "phase.cache_lookup.n"), "2");
}

TEST(Router, ClientTraceIdReachesRouterAndShardSpanLogs) {
  const TempPath router_log;
  const TempPath shard_log_0;
  const TempPath shard_log_1;
  {
    std::vector<std::unique_ptr<TestServer>> shards;
    shards.push_back(std::make_unique<TestServer>(
        ServerOptions{.jobs = 2, .trace_log = shard_log_0.str()}));
    shards.push_back(std::make_unique<TestServer>(
        ServerOptions{.jobs = 2, .trace_log = shard_log_1.str()}));
    RouterOptions options;
    for (const auto& shard : shards) {
      options.shards.push_back(ShardAddress{"127.0.0.1", shard->port()});
    }
    options.trace_log = router_log.str();
    TestRouter router(std::move(options));
    WireClient client(router.port());
    ASSERT_TRUE(client.connected());
    client.send_line(with_trace(
        io::format_solve_request(gen::motivating_example(),
                                 api::SolveRequest{}, "t0"),
        "deadbeefdeadbeef"));
    ASSERT_TRUE(client.recv_line().has_value());
  }  // teardown joins router and shards; span lines are flushed

  const auto router_spans = read_span_log(router_log.str());
  ASSERT_EQ(router_spans.size(), 1u);
  EXPECT_EQ(value_of(router_spans[0], "trace"), "deadbeefdeadbeef");
  EXPECT_EQ(value_of(router_spans[0], "type"), "solve");
  EXPECT_TRUE(has_key(router_spans[0], "span.relay_us"));
  // The serving shard logged the same id — one trace stitches both tiers.
  const auto shard_spans_0 = read_span_log(shard_log_0.str());
  const auto shard_spans_1 = read_span_log(shard_log_1.str());
  EXPECT_EQ(shard_spans_0.size() + shard_spans_1.size(), 1u);
  EXPECT_TRUE(log_has_trace(shard_spans_0, "deadbeefdeadbeef") ||
              log_has_trace(shard_spans_1, "deadbeefdeadbeef"));
}

TEST(Router, UntracedRequestGetsRouterGeneratedIdInBothLogs) {
  const TempPath router_log;
  const TempPath shard_log;
  {
    std::vector<std::unique_ptr<TestServer>> shards;
    shards.push_back(std::make_unique<TestServer>(
        ServerOptions{.jobs = 2, .trace_log = shard_log.str()}));
    RouterOptions options;
    options.shards.push_back(ShardAddress{"127.0.0.1", shards[0]->port()});
    options.trace_log = router_log.str();
    TestRouter router(std::move(options));
    WireClient client(router.port());
    ASSERT_TRUE(client.connected());
    client.send_line(io::format_solve_request(gen::motivating_example(),
                                              api::SolveRequest{}, "u0"));
    ASSERT_TRUE(client.recv_line().has_value());
  }

  const auto router_spans = read_span_log(router_log.str());
  ASSERT_EQ(router_spans.size(), 1u);
  const std::string trace_id = value_of(router_spans[0], "trace");
  ASSERT_EQ(trace_id.size(), 16u);
  // The router spliced its generated id into the forwarded line, so the
  // shard's log joins on the same id.
  const auto shard_spans = read_span_log(shard_log.str());
  ASSERT_EQ(shard_spans.size(), 1u);
  EXPECT_EQ(value_of(shard_spans[0], "trace"), trace_id);
}

TEST(Router, TracedResponsesStayByteIdenticalToUntraced) {
  std::vector<std::unique_ptr<TestServer>> shards;
  shards.push_back(std::make_unique<TestServer>(ServerOptions{.jobs = 2}));
  RouterOptions options;
  options.shards.push_back(ShardAddress{"127.0.0.1", shards[0]->port()});
  const TempPath router_log;
  options.trace_log = router_log.str();
  TestRouter router(std::move(options));
  WireClient client(router.port());
  ASSERT_TRUE(client.connected());

  const std::string line = io::format_solve_request(gen::motivating_example(),
                                                    api::SolveRequest{}, "b");
  client.send_line(line);
  const std::optional<std::string> first = client.recv_line();
  ASSERT_TRUE(first.has_value());
  client.send_line(line);
  const std::optional<std::string> second = client.recv_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(testing_wire::comparable(*first),
            testing_wire::comparable(*second));
  EXPECT_EQ(first->find("trace"), std::string::npos);
}

}  // namespace
}  // namespace pipeopt::router
