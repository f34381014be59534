#pragma once

/// \file layers.hpp
/// In-process timing of the request path's public entry points, called
/// from outside on the workload's own distinct requests: `io` parse, key
/// and format, `api` plan (plan_request + bind) and execute, the executor
/// queue hop (`Executor::solve_async`, one request in flight) and
/// `Executor::sweep`. Runs with no load on the machine.

#include <cstddef>

#include "stream.hpp"

namespace perfbench {

struct LayerTimes {
  double parse_us = 0.0;    ///< io::parse_{solve,pareto}_request_line, median
  double key_us = 0.0;      ///< io::format_solve_key, median
  double format_us = 0.0;   ///< io::format_result, median
  double plan_us = 0.0;     ///< plan_request + bind, median
  double execute_us = 0.0;  ///< SolvePlan::execute, median
  double queue_hop_us = 0.0;  ///< solve_async round trip − execute wall, median
  double sweep_points_per_sweep = 0.0;
  double sweep_us_per_point = 0.0;
  double exact_nodes_per_s = 0.0;  ///< Σ nodes ÷ Σ execute over exact wins
  double evals_per_s = 0.0;        ///< Σ evals ÷ Σ execute over evaluating solves
  std::size_t solves = 0;  ///< distinct solve requests timed
  std::size_t sweeps = 0;  ///< distinct sweeps timed
};

/// Times up to `max_solves` distinct solves and `max_sweeps` distinct
/// sweeps of the pool, in pool order.
[[nodiscard]] LayerTimes time_layers(const Stream& stream,
                                     std::size_t max_solves,
                                     std::size_t max_sweeps);

}  // namespace perfbench
