/// End-to-end tests of pipeopt-server over real sockets: responses over
/// the Table 1/2 grid are bit-identical to per-call `api::solve`, malformed
/// lines get structured errors instead of killing the process, deadlines
/// expire into typed cancelled results, a client that disconnects
/// mid-solve cancels its in-flight search (the PR 2 needle instance)
/// without affecting other connections, and shutdown drains gracefully.

#include "server/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "core/pareto.hpp"
#include "gen/motivating_example.hpp"
#include "gen/random_instances.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "tests/server/wire_harness.hpp"

namespace pipeopt::server {
namespace {

// The wire-level harness (in-process server, JSONL client, problem grids)
// lives in wire_harness.hpp, shared with the router suite.
using testing_wire::TestServer;
using testing_wire::WireClient;
using testing_wire::comparable;
using testing_wire::needle_instance;
using testing_wire::needle_request;
using testing_wire::table_grid;

TEST(Server, ResponsesBitIdenticalToPerCallSolveOverTheGrid) {
  TestServer harness(/*jobs=*/2);
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  const std::vector<core::Problem> grid = table_grid(3);
  std::vector<api::SolveRequest> requests;
  {
    api::SolveRequest period;  // defaults: weighted period over intervals
    requests.push_back(period);
    api::SolveRequest latency;
    latency.objective = api::Objective::Latency;
    requests.push_back(latency);
    api::SolveRequest energy;
    energy.objective = api::Objective::Energy;
    energy.constraints.period = core::Thresholds::per_app({100.0, 100.0});
    requests.push_back(energy);
  }

  for (const core::Problem& problem : grid) {
    for (const api::SolveRequest& request : requests) {
      client.send_line(io::format_solve_request(problem, request));
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(comparable(*response), comparable(api::solve(problem, request)))
          << "wire solve diverged from api::solve on: " << *response;
    }
  }
}

TEST(Server, EchoesTheRequestId) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.send_line(io::format_solve_request(gen::motivating_example(),
                                            api::SolveRequest{}, "req-17"));
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::WireResult wire = io::parse_result_line(*response);
  EXPECT_EQ(wire.id, "req-17");
  EXPECT_TRUE(wire.result.solved());
}

TEST(Server, MalformedLineGetsStructuredErrorAndConnectionSurvives) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  // Three ways to be wrong: not JSON, bad request field, unknown type.
  for (const std::string& bad :
       {std::string("this is not json"),
        std::string(R"({"type":"solve","objective":"sideways","problem":"x"})"),
        std::string(R"({"type":"dance","id":"d1"})")}) {
    client.send_line(bad);
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    const io::JsonFields fields = io::parse_flat_json(*response);
    ASSERT_FALSE(fields.empty());
    EXPECT_EQ(fields.front().first, "type");
    EXPECT_EQ(fields.front().second, "error");
  }

  // The connection (and the server) is still fine afterwards.
  client.send_line(
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(io::parse_result_line(*response).result.solved());
  EXPECT_EQ(harness.server().stats().errors(), 3u);
}

TEST(Server, PingAndStatsAnswerInline) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  client.send_line(R"({"type":"ping","id":"p1"})");
  auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, R"({"type":"pong","id":"p1"})");

  client.send_line(
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
  ASSERT_TRUE(client.recv_line().has_value());

  client.send_line(R"({"type":"stats"})");
  response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  auto value_of = [&](const std::string& key) -> std::optional<std::string> {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return std::nullopt;
  };
  EXPECT_EQ(value_of("type"), "stats");
  EXPECT_EQ(value_of("solves"), "1");
  EXPECT_EQ(value_of("cancelled"), "0");
  EXPECT_EQ(value_of("requests"), "3");  // ping + solve + this stats line
  EXPECT_TRUE(value_of("jobs").has_value());
  EXPECT_TRUE(value_of("pending").has_value());
  // The dispatched solver shows up as a per-solver count.
  const api::SolveResult local =
      api::solve(gen::motivating_example(), api::SolveRequest{});
  EXPECT_EQ(value_of("solver." + local.solver), "1");
}

TEST(Server, HealthAnswersPidUptimeAndInFlightInline) {
  // The router's probe: `{"type":"health"}` must answer instantly (no pool
  // round trip) with the process identity and load of this very server.
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  client.send_line(R"({"type":"health","id":"h1"})");
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  auto value_of = [&](const std::string& key) -> std::optional<std::string> {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return std::nullopt;
  };
  ASSERT_FALSE(fields.empty());
  EXPECT_EQ(fields.front().first, "type");
  EXPECT_EQ(fields.front().second, "health");
  EXPECT_EQ(value_of("id"), "h1");
  // In-process server: the reported pid is ours.
  EXPECT_EQ(value_of("pid"), std::to_string(::getpid()));
  EXPECT_EQ(value_of("in_flight"), "0");
  ASSERT_TRUE(value_of("uptime_s").has_value());
  EXPECT_GE(std::stod(*value_of("uptime_s")), 0.0);

  // Without an id the field is omitted, like every other response type.
  client.send_line(R"({"type":"health"})");
  const auto anonymous = client.recv_line();
  ASSERT_TRUE(anonymous.has_value());
  EXPECT_EQ(anonymous->find("\"id\""), std::string::npos);

  // While a solve is in flight, in_flight reports it — this is the signal
  // a router's probe reads under load.
  api::SolveRequest slow = needle_request();
  slow.deadline_ms = 2000;
  client.send_line(io::format_solve_request(needle_instance(), slow, "n"));
  // The solve needs a moment to be read off the socket and dispatched
  // (and under a loaded test host, more than one): poll until the probe
  // sees it, bounded by the needle's own deadline.
  WireClient prober(harness.port());
  ASSERT_TRUE(prober.connected());
  bool saw_in_flight = false;
  const auto probe_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (!saw_in_flight && std::chrono::steady_clock::now() < probe_deadline) {
    prober.send_line(R"({"type":"health"})");
    const auto busy = prober.recv_line();
    ASSERT_TRUE(busy.has_value());
    saw_in_flight = busy->find("\"in_flight\":\"1\"") != std::string::npos;
    if (!saw_in_flight) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_in_flight);
  ASSERT_TRUE(client.recv_line().has_value());  // drain the needle result
}

TEST(Server, BacklogOptionIsHonoredAndServesNormally) {
  // ServerOptions::backlog feeds listen(2); a minimal queue must still
  // accept and serve sequential connections (semantics, not saturation —
  // the kernel rounds the value, so only behavior is assertable).
  TestServer harness(ServerOptions{.jobs = 1, .backlog = 1});
  for (int i = 0; i < 3; ++i) {
    WireClient client(harness.port());
    ASSERT_TRUE(client.connected());
    client.send_line(R"({"type":"ping"})");
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, R"({"type":"pong"})");
  }
}

TEST(Server, CacheEnabledServerRepliesByteIdenticallyOnReplay) {
  // serve --cache-entries: the same request stream replayed against a
  // cache-enabled server must produce the byte-identical response stream —
  // wall_s included, because hits return the stored result verbatim — and
  // the stats line must surface the cache counters.
  TestServer harness(ServerOptions{.jobs = 2, .cache_entries = 64});
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  std::vector<std::string> lines;
  for (const core::Problem& problem : table_grid(2)) {
    api::SolveRequest energy;
    energy.objective = api::Objective::Energy;
    energy.constraints.period = core::Thresholds::per_app({100.0, 100.0});
    lines.push_back(io::format_solve_request(problem, api::SolveRequest{}));
    lines.push_back(io::format_solve_request(problem, energy));
  }

  const auto replay = [&]() {
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      client.send_line(line);
      const auto response = client.recv_line();
      EXPECT_TRUE(response.has_value());
      responses.push_back(response.value_or(""));
    }
    return responses;
  };
  const std::vector<std::string> first = replay();
  const std::vector<std::string> second = replay();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i], first[i])
        << "cache replay diverged on request " << lines[i];
  }
  // And the first pass itself is bit-identical (wall-lessly) to per-call
  // api::solve — the cache never changes what a cold server would say.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const io::WireSolveRequest wire = io::parse_solve_request_line(lines[i]);
    EXPECT_EQ(comparable(first[i]),
              comparable(api::solve(wire.problem, wire.request)));
  }

  client.send_line(R"({"type":"stats"})");
  const auto stats_line = client.recv_line();
  ASSERT_TRUE(stats_line.has_value());
  const io::JsonFields fields = io::parse_flat_json(*stats_line);
  auto value_of = [&](const std::string& key) -> std::optional<std::string> {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return std::nullopt;
  };
  EXPECT_EQ(value_of("cache_hits"), std::to_string(lines.size()));
  EXPECT_EQ(value_of("cache_misses"), std::to_string(lines.size()));
  EXPECT_EQ(value_of("cache_evictions"), "0");
  const api::SolveCache* cache = harness.server().executor().cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->hits(), lines.size());
}

TEST(Server, CacheDisabledServerKeepsTheHistoricalStatsFields) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.send_line(R"({"type":"stats"})");
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->find("cache_"), std::string::npos);
  EXPECT_EQ(harness.server().executor().cache(), nullptr);
}

TEST(Server, DeadlineExpiresIntoTypedCancelledResultOverTheWire) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  api::SolveRequest request = needle_request();
  request.deadline_ms = 50;
  client.send_line(io::format_solve_request(needle_instance(), request));
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::WireResult wire = io::parse_result_line(*response);
  EXPECT_EQ(wire.result.status, api::SolveStatus::LimitExceeded);
  bool cancelled = false;
  for (const auto& [key, value] : wire.result.diagnostics) {
    cancelled |= key == "cancelled";
  }
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(harness.server().stats().cancelled(), 1u);
}

TEST(Server, DisconnectCancelsInFlightSolveWithoutAffectingOthers) {
  TestServer harness(/*jobs=*/2);

  // Connection A starts the needle search (provably > 10^7 nodes) ...
  auto victim = std::make_unique<WireClient>(harness.port());
  ASSERT_TRUE(victim->connected());
  victim->send_line(
      io::format_solve_request(needle_instance(), needle_request()));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // ... and vanishes mid-solve. The session's watch fires its
  // CancelSource; the worker comes back within one check stride.
  victim->close();
  victim.reset();

  // Connection B is untouched: it solves while A's cancellation lands.
  WireClient other(harness.port());
  ASSERT_TRUE(other.connected());
  other.send_line(
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
  const auto response = other.recv_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(io::parse_result_line(*response).result.solved());

  // The cancellation is observable in the stats (bounded wait: the watch
  // interval plus one cancel-check stride, with a generous margin).
  const auto& stats = harness.server().stats();
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((stats.disconnect_cancels() < 1 || stats.cancelled() < 1) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.disconnect_cancels(), 1u);
  EXPECT_EQ(stats.cancelled(), 1u);

  // And the pool survives: B can still solve.
  other.send_line(
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
  const auto again = other.recv_line();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(io::parse_result_line(*again).result.solved());
}

TEST(Server, StreamedParetoFrontBitIdenticalToInProcessSweepOverTheGrid) {
  TestServer harness(/*jobs=*/2);
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());

  api::SweepRequest request;  // defaults: minimize energy, sweep period
  request.bounds = {1.0, 2.0, 4.0, 100.0};
  request.refine = 1;

  for (const core::Problem& problem : table_grid(2)) {
    client.send_line(io::format_pareto_request(problem, request, "g"));
    // Drain the streamed exchange: front-point result lines, then the
    // terminal summary.
    std::vector<io::WireResult> streamed;
    std::optional<io::WireParetoSummary> summary;
    for (;;) {
      const auto response = client.recv_line();
      ASSERT_TRUE(response.has_value());
      const io::JsonFields fields = io::parse_flat_json(*response);
      std::string type;
      for (const auto& [key, value] : fields) {
        if (key == "type") type = value;
      }
      ASSERT_NE(type, "error") << *response;
      if (type == "pareto") {
        summary = io::parse_pareto_summary(fields);
        break;
      }
      streamed.push_back(io::parse_result(fields));
    }

    const api::ParetoFront local = api::sweep(problem, request);
    ASSERT_TRUE(summary.has_value());
    EXPECT_TRUE(summary->complete);
    EXPECT_EQ(summary->id, "g");
    EXPECT_EQ(summary->points, local.front.size());
    EXPECT_EQ(summary->evaluated, local.evaluations.size());
    EXPECT_EQ(summary->infeasible, local.infeasible_points);

    ASSERT_EQ(streamed.size(), local.front.size());
    std::vector<core::ParetoPoint> wire_points;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      const api::SweepEvaluation& evaluation =
          local.evaluations[local.front[i]];
      EXPECT_EQ(streamed[i].id, "g");
      ASSERT_TRUE(streamed[i].bound.has_value());
      // Bit-identity, point by point: the wall-less canonical line of the
      // wire result equals the in-process sweep's.
      EXPECT_EQ(io::format_front_point(streamed[i].result, *streamed[i].bound,
                                       "", /*include_wall=*/false),
                io::format_front_point(evaluation.result, evaluation.bound,
                                       "", /*include_wall=*/false))
          << "wire front diverged from api::sweep";
      core::ParetoPoint point;
      point.period = streamed[i].result.metrics.max_weighted_period;
      point.energy = streamed[i].result.metrics.energy;
      wire_points.push_back(point);
    }
    // Every returned 2-D front satisfies the §2 monotone trade-off, on
    // both sides of the wire.
    EXPECT_TRUE(local.monotone());
    EXPECT_TRUE(core::energy_monotone_in_period(wire_points));
  }
  EXPECT_EQ(harness.server().stats().errors(), 0u);
}

TEST(Server, DisconnectCancelsRemainingSweepGridPoints) {
  TestServer harness(/*jobs=*/2);

  // A sweep of three needle searches (each deterministically enormous;
  // exact-enumeration takes the bound constraints branch-and-bound
  // refuses). The client vanishes mid-front ...
  auto victim = std::make_unique<WireClient>(harness.port());
  ASSERT_TRUE(victim->connected());
  api::SweepRequest request;
  request.base.objective = api::Objective::Period;
  request.base.kind = api::MappingKind::OneToOne;
  request.base.solver = "exact-enumeration";
  request.base.node_budget = 1'000'000'000;
  request.swept = api::Objective::Energy;
  request.bounds = {1e6, 1e7, 1e8};
  victim->send_line(io::format_pareto_request(needle_instance(), request));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  victim->close();
  victim.reset();

  // ... so the session watch fires the sweep's CancelSource: the running
  // grid points unwind within one check stride and the queued one never
  // really starts. All of it is observable in the stats.
  const auto& stats = harness.server().stats();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((stats.disconnect_cancels() < 1 || stats.cancelled() < 3) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.disconnect_cancels(), 1u);
  EXPECT_EQ(stats.cancelled(), 3u);  // every remaining grid point died
  EXPECT_EQ(stats.sweeps(), 1u);
  EXPECT_EQ(stats.solves(), 3u);  // one dispatch per grid point

  // The cancellation is visible over the wire too, and the pool survives.
  WireClient other(harness.port());
  ASSERT_TRUE(other.connected());
  other.send_line(R"({"type":"stats"})");
  const auto response = other.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  auto value_of = [&](const std::string& key) -> std::optional<std::string> {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return std::nullopt;
  };
  EXPECT_EQ(value_of("sweeps"), "1");
  EXPECT_EQ(value_of("cancelled"), "3");
  EXPECT_EQ(value_of("disconnect_cancels"), "1");
  other.send_line(
      io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
  const auto solved = other.recv_line();
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(io::parse_result_line(*solved).result.solved());
}

TEST(Server, UnusableSweepAnswersWithAStructuredError) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());
  // Well-formed JSON, parseable sweep, semantically unusable: the swept
  // criterion equals the objective.
  client.send_line(
      R"({"type":"pareto","id":"bad","sweep":"energy","sweep_bounds":"1,2",)"
      R"("problem":"comm overlap\nbandwidth 1\nprocessor P static=0 )"
      R"(speeds=1\napp A weight=1 input=0 stages=1:0\n"})");
  const auto response = client.recv_line();
  ASSERT_TRUE(response.has_value());
  const io::JsonFields fields = io::parse_flat_json(*response);
  EXPECT_EQ(fields.front().first, "type");
  EXPECT_EQ(fields.front().second, "error");
  EXPECT_EQ(harness.server().stats().errors(), 1u);
  EXPECT_EQ(harness.server().stats().sweeps(), 0u);
}

TEST(Server, PipelinedRequestsAreAllAnsweredInOrder) {
  TestServer harness;
  WireClient client(harness.port());
  ASSERT_TRUE(client.connected());
  const core::Problem problem = gen::motivating_example();
  std::string burst;
  for (int i = 0; i < 3; ++i) {
    burst += io::format_solve_request(problem, api::SolveRequest{},
                                      "burst-" + std::to_string(i)) +
             "\n";
  }
  // One write, three requests: exercises the buffered-input path where the
  // disconnect watch must stand down.
  client.send_line(burst.substr(0, burst.size() - 1));
  for (int i = 0; i < 3; ++i) {
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value());
    const io::WireResult wire = io::parse_result_line(*response);
    EXPECT_EQ(wire.id, "burst-" + std::to_string(i));
    EXPECT_TRUE(wire.result.solved());
  }
}

TEST(Server, GracefulShutdownDrainsAndStopsAccepting) {
  TestServer harness;
  const std::uint16_t port = harness.port();
  {
    WireClient client(port);
    ASSERT_TRUE(client.connected());
    client.send_line(
        io::format_solve_request(gen::motivating_example(), api::SolveRequest{}));
    ASSERT_TRUE(client.recv_line().has_value());

    harness.server().shutdown();
    harness.join();  // serve() returned: sessions joined, drain complete
  }
  WireClient late(port);
  // Either the connect fails outright or the half-open socket yields EOF.
  if (late.connected()) {
    late.send_line(R"({"type":"ping"})");
    EXPECT_FALSE(late.recv_line().has_value());
  }
}

TEST(Server, ShutdownMidRequestStillDeliversTheResponse) {
  // The drain half-closes the session; the watch must not read that as
  // the client leaving, so the solve runs to its deadline and flushes.
  TestServer harness;
  testing_wire::expect_drain_delivers_in_flight_result(
      harness.port(),
      [&harness] { return harness.server().executor().pending() >= 1; },
      [&harness] { harness.server().shutdown(); });
  EXPECT_EQ(harness.server().stats().disconnect_cancels(), 0u);
}

TEST(Server, PathIsRefusedOverTcpWithoutReadingTheFile) {
  TestServer harness;
  testing_wire::expect_path_refused(harness.port());
}

TEST(Server, StdioEofDoesNotCancelTheInFlightSolve) {
  // The one-shot pipe idiom: `printf <request> | pipeopt serve --stdio`.
  // The writer closes stdin immediately, but the stdout reader is still
  // there — EOF on the request stream must end the session AFTER the
  // in-flight solve completes, never cancel it. The needle under a node
  // budget takes well over one watch interval, so a disconnect-cancel bug
  // would return "cancelled" here instead of the budget result.
  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  Server server(ServerOptions{.jobs = 1});
  api::SolveRequest request = needle_request();
  request.node_budget = 2'000'000;  // >> one 10ms watch tick, << test budget
  const std::string input =
      io::format_solve_request(needle_instance(), request) + "\n";
  ASSERT_EQ(::write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(in_pipe[1]);  // writer gone before the solve even starts

  server.serve_stream(in_pipe[0], out_pipe[1]);
  ::close(out_pipe[1]);
  ::close(in_pipe[0]);

  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(out_pipe[0], chunk, sizeof chunk)) > 0) {
    output.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);

  ASSERT_FALSE(output.empty());
  const io::WireResult wire =
      io::parse_result_line(output.substr(0, output.find('\n')));
  EXPECT_EQ(wire.result.status, api::SolveStatus::LimitExceeded);
  bool budget = false, cancelled = false;
  for (const auto& [key, value] : wire.result.diagnostics) {
    budget |= key == "node-budget";
    cancelled |= key == "cancelled";
  }
  EXPECT_TRUE(budget);      // the honest end of the bounded search ...
  EXPECT_FALSE(cancelled);  // ... not a misread "client disconnected"
  EXPECT_EQ(server.stats().disconnect_cancels(), 0u);
}

TEST(Server, StdioStreamServesBufferedRequestsToEof) {
  // The --stdio mode: requests piped in, write end closed immediately —
  // buffered requests must all be answered, not mistaken for a disconnect.
  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  Server server(ServerOptions{.jobs = 1});
  const core::Problem problem = gen::motivating_example();
  std::string input;
  input += io::format_solve_request(problem, api::SolveRequest{}, "s0") + "\n";
  input += R"({"type":"stats","id":"s1"})" "\n";
  ASSERT_EQ(::write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(in_pipe[1]);

  server.serve_stream(in_pipe[0], out_pipe[1]);
  ::close(out_pipe[1]);
  ::close(in_pipe[0]);

  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(out_pipe[0], chunk, sizeof chunk)) > 0) {
    output.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (output[i] == '\n') {
      lines.push_back(output.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  const io::WireResult solve = io::parse_result_line(lines[0]);
  EXPECT_EQ(solve.id, "s0");
  EXPECT_TRUE(solve.result.solved());
  EXPECT_NE(lines[1].find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"s1\""), std::string::npos);
}

}  // namespace
}  // namespace pipeopt::server
