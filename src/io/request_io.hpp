#pragma once

/// \file request_io.hpp
/// Wire form of one solve or sweep request — the request side of the
/// pipeopt-server protocol (documented end to end in docs/PROTOCOL.md),
/// shared by the CLI `client`/`pareto` subcommands and the tests. One flat
/// JSON object per line (json.hpp dialect, every value a string):
///
/// ```json
/// {"type":"solve","objective":"energy","kind":"interval",
///  "weights":"unit","solver":"branch-and-bound",
///  "period_bounds":"2,2","latency_bounds":"5,5","energy_budget":"10",
///  "node_budget":"1000000","time_budget_s":"1.5","seed":"7",
///  "deadline_ms":"500","id":"42","problem":"comm overlap\n..."}
/// ```
///
/// `problem` carries the instance inline in the text format of
/// problem_io.hpp (lossless for every platform class); `path` loads it
/// from a file instead — exactly one of the two. Every other field is
/// optional and defaults to the corresponding `SolveRequest` default;
/// bounds are comma lists with either one value (replicated per
/// application, like the CLI) or one value per application. `id` is an
/// opaque client tag the server echoes into the matching result line.
///
/// A Pareto-front sweep travels as `{"type":"pareto", ...}` with the same
/// shared fields plus `sweep` (the bounded criterion walked by the grid,
/// default "period"), `sweep_bounds` (the comma-separated grid, required)
/// and `refine` (adaptive refinement rounds); `objective` defaults to
/// "energy" for sweeps, and `deadline_ms` bounds the whole sweep.
///
/// `parse_solve_request(format_solve_request(problem, request))` rebuilds
/// both the instance and the request bit for bit (shortest round-trip
/// number formatting) — the foundation of the server's bit-identity
/// guarantee; the pareto pair round-trips the same way. Malformed input
/// throws io::ParseError; the server maps that to a structured
/// `{"type":"error",...}` line instead of dying.

#include <cstddef>
#include <string>

#include "api/request.hpp"
#include "api/sweep.hpp"
#include "core/problem.hpp"
#include "io/json.hpp"

namespace pipeopt::io {

/// One decoded wire request: the instance, the facade request, and the
/// client's correlation id ("" when absent).
struct WireSolveRequest {
  core::Problem problem;
  api::SolveRequest request;
  std::string id;
};

/// Decodes already-parsed fields (the server parses the line once to read
/// "type", then hands the fields over). Relative "path" values resolve
/// against `base_dir`. \throws ParseError naming `line_no`.
[[nodiscard]] WireSolveRequest parse_solve_request(
    const JsonFields& fields, std::size_t line_no = 1,
    const std::string& base_dir = {});

/// True when the request names its instance by `path`, a file local to
/// whoever parses it. Network sessions refuse such lines unread; the CLI,
/// `--stdio` and manifests load them.
[[nodiscard]] bool names_a_path(const JsonFields& fields);

/// `parse_flat_json` + `parse_solve_request`.
[[nodiscard]] WireSolveRequest parse_solve_request_line(
    const std::string& line, std::size_t line_no = 1,
    const std::string& base_dir = {});

/// One request as a single JSONL line (no trailing newline), instance
/// inline. Fields equal to the SolveRequest defaults are omitted; the
/// cancel token does not travel (arm deadlines via `deadline_ms`).
[[nodiscard]] std::string format_solve_request(
    const core::Problem& problem, const api::SolveRequest& request,
    const std::string& id = {});

/// Canonical cache-key bytes of one (problem, request) pair: the solve
/// fields of `format_solve_request` (same omit-defaults rules, including
/// `warm_start`) followed by the canonical instance text — no "type", no
/// "id". Two requests that differ only in wire presentation (field order,
/// a replicated bound vs the explicit per-application list, instance-text
/// comments/whitespace) produce identical keys; anything that can change
/// the solve result produces different ones. This is the key
/// `api::SolveCache` shards on. The cancel token is deliberately excluded:
/// cacheability of token-bearing requests is the cache's policy, not the
/// key's.
[[nodiscard]] std::string format_solve_key(const core::Problem& problem,
                                           const api::SolveRequest& request);

/// One decoded `{"type":"pareto"}` wire request: the instance, the facade
/// sweep request, and the client's correlation id ("" when absent).
struct WireParetoRequest {
  core::Problem problem;
  api::SweepRequest request;
  std::string id;
};

/// Decodes already-parsed fields of a pareto request line. The grid
/// (`sweep_bounds`) is required; semantic sweep validation (objective pair,
/// pre-constrained axis) stays in `api::validate_sweep`, which the server
/// and CLI run before dispatching. \throws ParseError naming `line_no`.
[[nodiscard]] WireParetoRequest parse_pareto_request(
    const JsonFields& fields, std::size_t line_no = 1,
    const std::string& base_dir = {});

/// `parse_flat_json` + `parse_pareto_request`.
[[nodiscard]] WireParetoRequest parse_pareto_request_line(
    const std::string& line, std::size_t line_no = 1,
    const std::string& base_dir = {});

/// One sweep request as a single JSONL line (no trailing newline),
/// instance inline; round-trips bit for bit through parse_pareto_request.
[[nodiscard]] std::string format_pareto_request(
    const core::Problem& problem, const api::SweepRequest& request,
    const std::string& id = {});

}  // namespace pipeopt::io
