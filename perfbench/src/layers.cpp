#include "layers.hpp"

#include <chrono>
#include <optional>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "report.hpp"

namespace perfbench {

using namespace pipeopt;

namespace {

using Clock = std::chrono::steady_clock;

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Repetitions of the cheap calls per request; execute runs once.
constexpr int kReps = 3;

}  // namespace

LayerTimes time_layers(const Stream& stream, std::size_t max_solves,
                       std::size_t max_sweeps) {
  std::vector<double> parse, key, format, plan, execute, hop;
  double exact_nodes = 0.0, exact_s = 0.0, evals = 0.0, evals_s = 0.0;
  double points = 0.0, sweep_us = 0.0;
  LayerTimes times;
  api::Executor executor(api::ExecutorOptions{.jobs = 1});
  api::Executor sweeper(api::ExecutorOptions{.jobs = 2});
  for (const PoolEntry& entry : stream.pool) {
    if (entry.kind == Kind::Pareto) {
      if (times.sweeps >= max_sweeps) continue;
      ++times.sweeps;
      const io::WireParetoRequest wire = io::parse_pareto_request_line(entry.line);
      const Clock::time_point t0 = Clock::now();
      const api::ParetoFront front = sweeper.sweep(wire.problem, wire.request);
      sweep_us += micros(t0, Clock::now());
      points += static_cast<double>(front.evaluations.size());
      continue;
    }
    if (times.solves >= max_solves) continue;
    ++times.solves;
    std::optional<io::WireSolveRequest> parsed;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      parsed.emplace(io::parse_solve_request_line(entry.line));
      const Clock::time_point t1 = Clock::now();
      const std::string cache_key = io::format_solve_key(parsed->problem, parsed->request);
      const Clock::time_point t2 = Clock::now();
      parse.push_back(micros(t0, t1));
      key.push_back(micros(t1, t2));
    }
    const io::WireSolveRequest& wire = *parsed;
    Clock::time_point t0 = Clock::now();
    const api::SolvePlan bound =
        api::default_registry().plan_request(wire.request).bind(wire.problem);
    plan.push_back(micros(t0, Clock::now()));
    t0 = Clock::now();
    const api::SolveResult result = bound.execute();
    const double execute_us = micros(t0, Clock::now());
    execute.push_back(execute_us);
    if (entry.tier == Tier::Exact) {
      exact_nodes += entry.nodes;
      exact_s += execute_us * 1e-6;
    }
    if (entry.evals > 0.0) {
      evals += entry.evals;
      evals_s += execute_us * 1e-6;
    }
    for (int rep = 0; rep < kReps; ++rep) {
      t0 = Clock::now();
      const std::string line = io::format_result(result);
      format.push_back(micros(t0, Clock::now()));
    }
    t0 = Clock::now();
    const api::SolveResult async =
        executor.solve_async(wire.problem, wire.request).get();
    hop.push_back(micros(t0, Clock::now()) - async.wall_seconds * 1e6);
  }
  times.parse_us = quantile(parse, 0.5).value;
  times.key_us = quantile(key, 0.5).value;
  times.format_us = quantile(format, 0.5).value;
  times.plan_us = quantile(plan, 0.5).value;
  times.execute_us = quantile(execute, 0.5).value;
  times.queue_hop_us = quantile(hop, 0.5).value;
  if (times.sweeps > 0) {
    times.sweep_points_per_sweep = points / static_cast<double>(times.sweeps);
    times.sweep_us_per_point = points > 0.0 ? sweep_us / points : 0.0;
  }
  times.exact_nodes_per_s = exact_s > 0.0 ? exact_nodes / exact_s : 0.0;
  times.evals_per_s = evals_s > 0.0 ? evals / evals_s : 0.0;
  return times;
}

}  // namespace perfbench
