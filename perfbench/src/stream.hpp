#pragma once

/// \file stream.hpp
/// The benchmark's workloads and their seeded request streams.
///
/// A stream is a pool of distinct wire request lines plus the order (and,
/// for the open loop, the due times) in which the load generator sends
/// them. Everything is a pure function of (workload, seed): the programs
/// under test receive only these lines. `compute_references` then solves
/// every distinct request in-process (`api::solve` / `api::sweep`) so each
/// wire response can be checked byte for byte, `wall_s` aside.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Topology { Serve, Fleet };

/// One workload: how the programs are deployed and how they are loaded.
/// Every workload is an open loop: seeded Poisson arrivals at a fixed rate
/// well below what the deployment sustains, so a slower commit shows as
/// higher latency and CPU per request, and the figures do not swing with
/// the CPU other tenants of a shared host leave over (a closed loop's
/// throughput there moved by a factor of four between runs).
struct WorkloadSpec {
  const char* name;
  Topology topology;
  std::size_t connections;    ///< at most this many, pipelined
  std::size_t jobs;           ///< `--jobs` of the server (of each shard)
  std::size_t shards;         ///< `route --spawn N` (Fleet only)
  std::size_t cache_entries;  ///< `--cache-entries`, 0 = cache off
  double rate_rps;            ///< arrival rate
  double slo_ms;              ///< latency limit behind `slo_share`
  double warmup_s;            ///< traffic before the timed window
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has this name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

enum class Kind { Solve, Pareto };
/// Cost tier of the solver that answered (from the reference result).
enum class Tier { Polynomial, Exact, Heuristic, None };

/// One distinct request and its reference answer.
struct PoolEntry {
  Kind kind = Kind::Solve;
  bool heavy = false;  ///< drawn from the exact-search-sized shape
  std::string line;    ///< the wire request line (no id, no trace)
  /// Reference response lines with `wall_s` stripped: one result line for
  /// a solve; front-point lines then the summary line for a pareto sweep.
  std::vector<std::string> expected;
  bool optimal = false;  ///< solve answered `optimal`
  Tier tier = Tier::None;
  double nodes = 0.0;    ///< `diag.nodes` of a solve (0 when absent)
  double evals = 0.0;    ///< `diag.evals` of a solve (0 when absent)
};

struct Stream {
  std::vector<PoolEntry> pool;
  /// Pool index of request i, sent `due_s[i]` seconds after the start.
  std::vector<std::uint32_t> order;
  std::vector<double> due_s;
};

/// The seeded stream of one workload; arrivals cover [0, horizon_s).
[[nodiscard]] Stream make_stream(const WorkloadSpec& spec, std::uint64_t seed,
                                 double horizon_s);

/// Fills `expected` and the reference facts of every pool entry, solving
/// in-process on `threads` threads. Untimed.
void compute_references(Stream& stream, std::size_t threads);

/// `line` with its `,"wall_s":"..."` field removed (unchanged when absent).
[[nodiscard]] std::string strip_wall(std::string line);

}  // namespace perfbench
