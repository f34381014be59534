#include "stream.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "api/sweep.hpp"
#include "gen/random_instances.hpp"
#include "io/request_io.hpp"
#include "io/result_io.hpp"
#include "util/numeric.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace pipeopt;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // name, topology, connections, jobs, shards, cache, rate, slo_ms,
      // warm-up
      {"solve_heavy", Topology::Serve, 4, 2, 0, 0, 100.0, 50.0, 1.0},
      {"fleet_mixed", Topology::Fleet, 4, 1, 2, 256, 300.0, 20.0, 2.0},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

/// The four platform columns of Tables 1 and 2.
enum class Column { FullyHom, SpecialApp, CommHom, FullyHet };

struct Shape {
  std::size_t min_stages, max_stages, processors;
};
constexpr Shape kLight{1, 3, 5};
/// Branch-and-bound-sized period solves (~0.5 ms median, ~30 ms worst).
constexpr Shape kHeavy{4, 6, 8};
/// Energy under a period bound is exhaustive enumeration; on the kHeavy
/// shape it takes seconds, on this one milliseconds.
constexpr Shape kEnumeration{3, 4, 6};

core::Problem random_instance(util::Rng& rng, Column column,
                              core::CommModel comm, const Shape& shape) {
  gen::ProblemShape ps;
  ps.applications = 2;
  ps.processors = shape.processors;
  ps.app.min_stages = shape.min_stages;
  ps.app.max_stages = shape.max_stages;
  ps.platform.modes = 1;
  ps.comm = comm;
  switch (column) {
    case Column::FullyHom:
      ps.platform_class = core::PlatformClass::FullyHomogeneous;
      break;
    case Column::SpecialApp:
      ps.platform_class = core::PlatformClass::CommHomogeneous;
      ps.special_app = true;
      break;
    case Column::CommHom:
      ps.platform_class = core::PlatformClass::CommHomogeneous;
      break;
    case Column::FullyHet:
      ps.platform_class = core::PlatformClass::FullyHeterogeneous;
      break;
  }
  return gen::random_problem(rng, ps);
}

/// Node budget of every heavy solve: a few instances in a thousand need
/// millions of branch-and-bound nodes (seconds); capped, they answer from
/// the heuristic ladder in milliseconds, so no single instance dominates a
/// run.
constexpr std::uint64_t kHeavyNodeBudget = 200'000;

/// Rounds to three significant digits, so a bound derived from a solved
/// optimum does not move with the optimum's last bits.
double round3(double x) {
  if (!(x > 0.0) || !std::isfinite(x)) return x;
  const double scale = std::pow(10.0, 2 - std::floor(std::log10(x)));
  return std::round(x * scale) / scale;
}

/// The optimal period of `problem`, solved in-process; nullopt when no
/// mapping exists. Bounds of energy solves and sweeps derive from it.
std::optional<double> min_period(const core::Problem& problem,
                                 api::MappingKind kind) {
  api::SolveRequest request;
  request.kind = kind;
  const api::SolveResult result = api::solve(problem, request);
  if (!result.solved()) return std::nullopt;
  return result.value;
}

core::ConstraintSet period_bound(const core::Problem& problem, double bound) {
  core::ConstraintSet constraints;
  constraints.period = core::Thresholds::per_app(
      std::vector<double>(problem.application_count(), bound));
  return constraints;
}

/// What one drawn request asks for.
enum class Ask { Period, Latency, Energy, BudgetedPeriod, Pareto };

PoolEntry make_entry(util::Rng& rng, const Shape& shape, Column column,
                     core::CommModel comm, Ask ask,
                     api::MappingKind kind = api::MappingKind::Interval) {
  const core::Problem problem = random_instance(rng, column, comm, shape);
  PoolEntry entry;
  entry.heavy = shape.processors != kLight.processors;
  api::SolveRequest request;
  request.kind = kind;
  switch (ask) {
    case Ask::Period:
      if (shape.processors != kLight.processors) request.node_budget = kHeavyNodeBudget;
      break;
    case Ask::Latency:
      request.objective = api::Objective::Latency;
      break;
    case Ask::BudgetedPeriod:
      // A node budget far below what branch-and-bound needs: the exact
      // tier gives up deterministically and the heuristic ladder answers.
      request.node_budget = 200;
      break;
    case Ask::Energy: {
      if (shape.processors != kLight.processors) request.node_budget = kHeavyNodeBudget;
      const double slack = rng.uniform(1.1, 2.0);
      if (const auto period = min_period(problem, kind)) {
        request.objective = api::Objective::Energy;
        request.constraints = period_bound(problem, round3(*period * slack));
      }
      break;
    }
    case Ask::Pareto: {
      api::SweepRequest sweep;
      sweep.refine = 1;
      const double base = min_period(problem, kind).value_or(1.0);
      sweep.bounds = {round3(base * 1.05), round3(base * 1.6),
                      round3(base * 3.0)};
      entry.kind = Kind::Pareto;
      entry.line = io::format_pareto_request(problem, sweep);
      return entry;
    }
  }
  entry.line = io::format_solve_request(problem, request);
  return entry;
}

Column draw_column(util::Rng& rng, bool heavy) {
  if (heavy) return rng.chance(0.5) ? Column::CommHom : Column::FullyHet;
  return static_cast<Column>(rng.index(4));
}

core::CommModel draw_comm(util::Rng& rng) {
  return rng.chance(0.5) ? core::CommModel::Overlap
                         : core::CommModel::NoOverlap;
}

/// A light request: period, latency or energy under a period bound, drawn
/// so that the paper's polynomial algorithms answer most of them: the
/// fully homogeneous column takes any objective on interval mappings, the
/// special-app and com-hom columns take latency on interval mappings and
/// period or energy on one-to-one mappings (Tables 1 and 2). A tenth of
/// the draws are com-het, NP-hard in every cell, and go to exact search.
PoolEntry light_entry(util::Rng& rng) {
  const double c = rng.uniform(0.0, 1.0);
  const Column column = c < 0.3   ? Column::FullyHom
                        : c < 0.6 ? Column::SpecialApp
                        : c < 0.9 ? Column::CommHom
                                  : Column::FullyHet;
  const core::CommModel comm = draw_comm(rng);
  const double u = rng.uniform(0.0, 1.0);
  const Ask ask = u < 0.4 ? Ask::Period : u < 0.7 ? Ask::Latency : Ask::Energy;
  const bool one_to_one =
      ask != Ask::Latency &&
      (column == Column::SpecialApp || column == Column::CommHom);
  return make_entry(rng, kLight, column, comm, ask,
                    one_to_one ? api::MappingKind::OneToOne
                               : api::MappingKind::Interval);
}

/// A light energy-over-period sweep, refined once.
PoolEntry sweep_entry(util::Rng& rng) {
  const Column column = draw_column(rng, false);
  return make_entry(rng, kLight, column, draw_comm(rng), Ask::Pareto);
}

/// A heavy request: mostly exact period search, some energy under a period
/// bound (enumeration), a slice degraded to the heuristic ladder by its
/// node budget. Period search is most of the mix so that the median
/// latency falls inside one continuous cost distribution instead of
/// between two clusters, where it would flip with the seed.
PoolEntry heavy_entry(util::Rng& rng) {
  const Column column = draw_column(rng, true);
  const core::CommModel comm = draw_comm(rng);
  const double u = rng.uniform(0.0, 1.0);
  if (u < 0.85) return make_entry(rng, kHeavy, column, comm, Ask::Period);
  if (u < 0.95) return make_entry(rng, kEnumeration, column, comm, Ask::Energy);
  return make_entry(rng, kHeavy, column, comm, Ask::BudgetedPeriod);
}

/// A slice of a workload's pool and its share of the arrivals.
struct Part {
  std::size_t first, size;
  double share;
};

// Pool sizes. Per-request cost varies a lot between instances, so pools
// are large: a run's mean cost is then close to the shape's, whatever the
// seed.
constexpr std::size_t kHeavyPool = 2000;
constexpr std::size_t kSweepPool = 100;

// fleet_mixed: a hot set that fits the shard caches, a cold set far larger
// than them, a few heavy solves and a few sweeps.
constexpr std::size_t kFleetHot = 96;
constexpr std::size_t kFleetCold = 3000;
constexpr std::size_t kFleetHeavy = 300;

}  // namespace

Stream make_stream(const WorkloadSpec& spec, std::uint64_t seed,
                   double horizon_s) {
  util::Rng rng(seed);
  Stream stream;
  std::vector<PoolEntry>& pool = stream.pool;
  std::vector<Part> parts;
  const auto add = [&](std::size_t count, double share, auto draw) {
    parts.push_back(Part{pool.size(), count, share});
    for (std::size_t i = 0; i < count; ++i) pool.push_back(draw());
  };
  const std::string name = spec.name;
  const auto light = [&] { return light_entry(rng); };
  const auto heavy = [&] { return heavy_entry(rng); };
  // Sweeps: enough of them in a run for a repeatable median.
  const double sweep_share = name == "solve_heavy" ? 0.05 : 0.02;
  if (name == "solve_heavy") {
    add(kHeavyPool, 1.0 - sweep_share, heavy);
  } else if (name == "fleet_mixed") {
    add(kFleetHot, 0.55, light);
    add(kFleetCold, 0.41, light);
    add(kFleetHeavy, 0.02, heavy);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  add(kSweepPool, sweep_share, [&] { return sweep_entry(rng); });

  std::exponential_distribution<double> gap(spec.rate_rps);
  for (double t = gap(rng.engine()); t < horizon_s; t += gap(rng.engine())) {
    double u = rng.uniform(0.0, 1.0);
    const Part* part = &parts.back();
    for (const Part& candidate : parts) {
      if (u < candidate.share) {
        part = &candidate;
        break;
      }
      u -= candidate.share;
    }
    stream.order.push_back(static_cast<std::uint32_t>(part->first + rng.index(part->size)));
    stream.due_s.push_back(t);
  }
  return stream;
}

std::string strip_wall(std::string line) {
  static const std::string kField = ",\"wall_s\":\"";
  const std::size_t at = line.find(kField);
  if (at == std::string::npos) return line;
  const std::size_t close = line.find('"', at + kField.size());
  if (close == std::string::npos) return line;
  line.erase(at, close + 1 - at);
  return line;
}

namespace {

double diagnostic_sum(const api::SolveResult& result, const char* key) {
  double total = 0.0;
  for (const auto& [k, v] : result.diagnostics) {
    if (k == key) total += util::parse_number<double>(v).value_or(0.0);
  }
  return total;
}

void reference(PoolEntry& entry) {
  if (entry.kind == Kind::Pareto) {
    const io::WireParetoRequest wire = io::parse_pareto_request_line(entry.line);
    const api::ParetoFront front = api::sweep(wire.problem, wire.request);
    for (const std::size_t index : front.front) {
      const api::SweepEvaluation& point = front.evaluations[index];
      entry.expected.push_back(
          io::format_front_point(point.result, point.bound, "", false));
    }
    entry.expected.push_back(io::format_pareto_summary(front, "", false));
    return;
  }
  const io::WireSolveRequest wire = io::parse_solve_request_line(entry.line);
  const api::SolveResult result = api::solve(wire.problem, wire.request);
  entry.expected.push_back(io::format_result(result, "", false));
  entry.optimal = result.status == api::SolveStatus::Optimal;
  entry.nodes = diagnostic_sum(result, "nodes");
  entry.evals = diagnostic_sum(result, "evals");
  if (const api::Solver* solver = api::default_registry().find(result.solver)) {
    switch (solver->info().tier) {
      case api::CostTier::Polynomial: entry.tier = Tier::Polynomial; break;
      case api::CostTier::Exact: entry.tier = Tier::Exact; break;
      case api::CostTier::Heuristic: entry.tier = Tier::Heuristic; break;
    }
  }
}

}  // namespace

void compute_references(Stream& stream, std::size_t threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < stream.pool.size(); i = next++) {
        reference(stream.pool[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

}  // namespace perfbench
