// Observability through the server's wire surface: the {"type":"metrics"}
// response, the invariance of solve bytes under the optional "trace"
// request field, and the --trace-log span log (one JSONL line per
// completed request, phases covered).

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "api/sweep.hpp"
#include "gen/motivating_example.hpp"
#include "io/json.hpp"
#include "io/request_io.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt {
namespace {

using testing_wire::TempPath;
using testing_wire::TestServer;
using testing_wire::WireClient;
using testing_wire::comparable;

std::string value_of(const io::JsonFields& fields, const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

bool has_key(const io::JsonFields& fields, const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return true;
  }
  return false;
}

/// Splices the optional transport-level trace field into a request line,
/// the way the router does for forwarded lines.
std::string with_trace(std::string line, const std::string& trace_id) {
  line.insert(1, "\"trace\":\"" + trace_id + "\",");
  return line;
}

TEST(Server, MetricsResponseCarriesRequestPhaseAndSolverHistograms) {
  TestServer harness(2);
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  client.send_line(io::format_solve_request(gen::motivating_example(),
                                            api::SolveRequest{}, "m0"));
  ASSERT_TRUE(client.recv_line().has_value());

  client.send_line(R"({"type":"metrics","id":"q"})");
  const std::optional<std::string> response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(value_of(fields, "type"), "metrics");
  EXPECT_EQ(value_of(fields, "id"), "q");
  EXPECT_EQ(value_of(fields, "request.n"), "1");
  // Derived quantiles ride along with the summable bucket fields.
  EXPECT_TRUE(has_key(fields, "request.p50_us"));
  EXPECT_TRUE(has_key(fields, "request.p99_us"));
  // The session recorded its phases into the shared registry.
  EXPECT_EQ(value_of(fields, "phase.parse.n"), "1");
  EXPECT_EQ(value_of(fields, "phase.format.n"), "1");
  EXPECT_TRUE(has_key(fields, "phase.solve.n"));
  // Exactly one solver ran, so exactly one per-solver latency group exists.
  std::size_t solver_groups = 0;
  for (const auto& [key, value] : fields) {
    if (key.rfind("solver.", 0) == 0 &&
        key.size() > 10 && key.substr(key.size() - 10) == ".latency.n") {
      ++solver_groups;
      EXPECT_EQ(value, "1");
    }
  }
  EXPECT_EQ(solver_groups, 1u);
  // The cache is off by default: no cache_lookup phase was ever recorded
  // (the absence-is-information rule, mirroring the stats cache fields).
  EXPECT_FALSE(has_key(fields, "phase.cache_lookup.n"));
}

TEST(Server, TraceFieldLeavesSolveResponseBytesUnchanged) {
  TestServer harness(2);
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  const std::string line = io::format_solve_request(gen::motivating_example(),
                                                    api::SolveRequest{}, "t");
  client.send_line(line);
  const std::optional<std::string> plain = client.recv_line();
  ASSERT_TRUE(plain.has_value());

  client.send_line(with_trace(line, "00ff00ff00ff00ff"));
  const std::optional<std::string> traced = client.recv_line();
  ASSERT_TRUE(traced.has_value());

  EXPECT_EQ(comparable(*plain), comparable(*traced));
  // Responses never echo the trace id — that is how byte-identity holds.
  EXPECT_EQ(traced->find("trace"), std::string::npos);
}

TEST(Server, TraceLogRecordsOneSpanLinePerRequestWithGivenId) {
  const TempPath path;
  {
    TestServer harness(server::ServerOptions{.jobs = 2,
                                             .trace_log = path.str()});
    WireClient client(harness.port());
    ASSERT_TRUE(client.connected());
    client.send_line(with_trace(
        io::format_solve_request(gen::motivating_example(),
                                 api::SolveRequest{}, "t0"),
        "00112233aabbccdd"));
    ASSERT_TRUE(client.recv_line().has_value());
  }  // server shutdown joins the session; the span line is flushed

  std::ifstream in(path.str());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const io::JsonFields span = io::parse_flat_json(line);
  EXPECT_EQ(value_of(span, "trace"), "00112233aabbccdd");
  EXPECT_EQ(value_of(span, "type"), "solve");
  EXPECT_EQ(value_of(span, "id"), "t0");
  EXPECT_TRUE(has_key(span, "total_us"));
  EXPECT_TRUE(has_key(span, "span.parse_us"));
  EXPECT_TRUE(has_key(span, "span.queue_wait_us"));
  EXPECT_TRUE(has_key(span, "span.bind_us"));
  EXPECT_TRUE(has_key(span, "span.solve_us"));
  EXPECT_TRUE(has_key(span, "span.format_us"));
  EXPECT_FALSE(std::getline(in, line));  // exactly one request, one line
}

TEST(Server, TraceLogGeneratesAnIdForUntracedRequests) {
  const TempPath path;
  {
    TestServer harness(server::ServerOptions{.jobs = 2,
                                             .trace_log = path.str()});
    WireClient client(harness.port());
    ASSERT_TRUE(client.connected());
    client.send_line(io::format_solve_request(gen::motivating_example(),
                                              api::SolveRequest{}, "u0"));
    ASSERT_TRUE(client.recv_line().has_value());
  }

  std::ifstream in(path.str());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const io::JsonFields span = io::parse_flat_json(line);
  EXPECT_EQ(value_of(span, "trace").size(), 16u);
}

TEST(Server, ParetoSweepTraceLineAggregatesPointSpans) {
  const TempPath path;
  {
    TestServer harness(server::ServerOptions{.jobs = 2,
                                             .trace_log = path.str()});
    WireClient client(harness.port());
    ASSERT_TRUE(client.connected());
    api::SweepRequest request;  // defaults: minimize energy, sweep period
    request.bounds = {1.0, 2.0, 4.0, 100.0};
    client.send_line(io::format_pareto_request(gen::motivating_example(),
                                               request, "p0"));
    // Drain the streamed front points and the terminal summary.
    while (true) {
      const std::optional<std::string> response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      if (response->rfind(R"({"type":"pareto")", 0) == 0) break;
    }
  }

  std::ifstream in(path.str());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const io::JsonFields span = io::parse_flat_json(line);
  EXPECT_EQ(value_of(span, "type"), "pareto");
  EXPECT_EQ(value_of(span, "id"), "p0");
  // One line for the whole sweep: the grid points' solve/queue_wait spans
  // are summed into the request's totals, not logged per point.
  EXPECT_TRUE(has_key(span, "span.solve_us"));
  EXPECT_TRUE(has_key(span, "span.format_us"));
  EXPECT_FALSE(std::getline(in, line));
}

TEST(Server, StatsLineHasNoTraceOrMetricFields) {
  const TempPath path;
  TestServer harness(server::ServerOptions{.jobs = 2,
                                           .trace_log = path.str()});
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.send_line(with_trace(
      io::format_solve_request(gen::motivating_example(),
                               api::SolveRequest{}, "s"),
      "ffeeddccbbaa9988"));
  ASSERT_TRUE(client.recv_line().has_value());
  client.send_line(R"({"type":"stats"})");
  const std::optional<std::string> stats = client.recv_line();
  ASSERT_TRUE(stats.has_value());
  // The stats surface is untouched by observability: no trace ids, no
  // histogram buckets, no derived quantiles leak into it.
  EXPECT_EQ(stats->find("trace"), std::string::npos);
  EXPECT_EQ(stats->find("span."), std::string::npos);
  EXPECT_EQ(stats->find("p50_us"), std::string::npos);
}

}  // namespace
}  // namespace pipeopt
