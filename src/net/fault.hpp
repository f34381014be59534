#pragma once

/// \file fault.hpp
/// Deterministic, seeded fault injection for the fleet's socket paths.
///
/// A `FaultSpec` is parsed from the `--fault-spec seed:prob:kinds` flag
/// (e.g. `7:0.25:close,truncate,delay`). A `FaultInjector` built from it
/// makes an independent deterministic decision stream per (site, kind):
/// the n-th draw at a site is a pure function of (seed, site, kind, n),
/// so a fixed seed replays the exact same fault campaign regardless of
/// wall-clock timing — the property the chaos harness asserts on.
///
/// Kinds and where they bite:
///   refuse    connect_should_refuse(): outbound connects fail as if the
///             listener were down (router -> shard relay connects)
///   close     accept_should_close(): the listener accepts then
///             immediately closes, before reading a byte
///   truncate  write hook: deliver a strict prefix of the frame (always
///             dropping at least the trailing '\n' and one payload byte,
///             so a torn request can never parse as a complete message),
///             then shut the socket down — the peer sees a torn line + EOF
///   partial   write hook: short write; the framing layer's retry loop
///             completes the frame, proving short writes are harmless
///   delay     read/write hooks: injected 1-25ms sleeps
///
/// The injector is per-instance (each Server/Router owns its own), so
/// in-process tests can inject faults at the shards while the test
/// client's own sockets stay clean.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "util/fdio.hpp"

namespace pipeopt::net {

enum class FaultKind : std::size_t {
  Refuse = 0,
  Close,
  Truncate,
  Partial,
  Delay,
};
inline constexpr std::size_t kFaultKindCount = 5;

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// Parsed form of `--fault-spec seed:prob:kind[,kind...]`.
struct FaultSpec {
  std::uint64_t seed = 0;
  double probability = 0.0;  ///< per-decision injection probability [0,1]
  std::array<bool, kFaultKindCount> kinds{};

  [[nodiscard]] bool enabled(FaultKind kind) const {
    return kinds[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] bool any() const {
    for (const bool k : kinds) {
      if (k) return true;
    }
    return false;
  }
};

/// Parses the spec grammar; nullopt on malformed input (bad seed, a
/// probability outside [0,1], an unknown kind, or an empty kind list).
/// `all` expands to every kind.
[[nodiscard]] std::optional<FaultSpec> parse_fault_spec(
    const std::string& text);

class FaultInjector {
 public:
  /// Decision sites. Front* wrap the listener-facing session sockets,
  /// Relay* wrap the router's outbound shard connections. Separate
  /// streams per site keep campaigns deterministic even when traffic on
  /// one site (e.g. health probes) would otherwise perturb another.
  enum class Site : std::size_t {
    Accept = 0,
    Connect,
    FrontRead,
    FrontWrite,
    RelayRead,
    RelayWrite,
  };
  static constexpr std::size_t kSiteCount = 6;

  explicit FaultInjector(FaultSpec spec);

  /// True when the freshly accepted connection should be dropped on the
  /// floor (kind `close`).
  [[nodiscard]] bool accept_should_close();

  /// True when an outbound connect should fail without dialing (kind
  /// `refuse`).
  [[nodiscard]] bool connect_should_refuse();

  /// Hook pairs for util::FdLineReader / util::write_line. Valid for the
  /// injector's lifetime; thread-safe.
  [[nodiscard]] const util::IoHooks& front_io() const { return front_io_; }
  [[nodiscard]] const util::IoHooks& relay_io() const { return relay_io_; }

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// Total faults injected for `kind` across all sites (observability /
  /// test assertions; not part of the decision stream).
  [[nodiscard]] std::uint64_t injected(FaultKind kind) const;
  [[nodiscard]] std::uint64_t injected_total() const;

 private:
  /// Draws the next decision for (site, kind); `param` receives a
  /// deterministic 64-bit value for sizing the fault (truncation point,
  /// partial length, delay duration).
  bool decide(Site site, FaultKind kind, std::uint64_t& param);

  ssize_t hooked_read(Site site, int fd, void* buf, std::size_t len);
  ssize_t hooked_write(Site site, int fd, const void* buf, std::size_t len);

  FaultSpec spec_;
  std::array<std::array<std::atomic<std::uint64_t>, kFaultKindCount>,
             kSiteCount>
      counters_{};
  std::array<std::atomic<std::uint64_t>, kFaultKindCount> injected_{};
  util::IoHooks front_io_;
  util::IoHooks relay_io_;
};

/// The injector behind a `--fault-spec` flag: nullptr for an empty spec.
/// \throws std::runtime_error "<owner>: bad --fault-spec '<spec>' ..." on
/// malformed input.
[[nodiscard]] std::unique_ptr<FaultInjector> make_fault_injector(
    const std::string& owner, const std::string& spec);

}  // namespace pipeopt::net
