#include "net/fault.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace pipeopt::net {
namespace {

/// splitmix64: decision draws must be a pure function of
/// (seed, site, kind, counter), never of shared RNG state, so concurrent
/// sessions cannot perturb each other's fault sequences.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Top 53 bits as a double in [0,1).
double to_unit(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

const char* kKindNames[kFaultKindCount] = {"refuse", "close", "truncate",
                                           "partial", "delay"};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

std::optional<FaultSpec> parse_fault_spec(const std::string& text) {
  const auto first = text.find(':');
  if (first == std::string::npos) return std::nullopt;
  const auto second = text.find(':', first + 1);
  if (second == std::string::npos) return std::nullopt;
  const std::string seed_text = text.substr(0, first);
  const std::string prob_text = text.substr(first + 1, second - first - 1);
  const std::string kinds_text = text.substr(second + 1);
  if (seed_text.empty() || prob_text.empty() || kinds_text.empty()) {
    return std::nullopt;
  }

  FaultSpec spec;
  {
    errno = 0;
    char* end = nullptr;
    spec.seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
  }
  {
    errno = 0;
    char* end = nullptr;
    spec.probability = std::strtod(prob_text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
    if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
      return std::nullopt;
    }
  }
  std::size_t start = 0;
  while (start <= kinds_text.size()) {
    auto comma = kinds_text.find(',', start);
    if (comma == std::string::npos) comma = kinds_text.size();
    const std::string kind = kinds_text.substr(start, comma - start);
    start = comma + 1;
    if (kind == "all") {
      spec.kinds.fill(true);
      continue;
    }
    bool known = false;
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      if (kind == kKindNames[k]) {
        spec.kinds[k] = true;
        known = true;
        break;
      }
    }
    if (!known) return std::nullopt;
  }
  return spec;
}

std::unique_ptr<FaultInjector> make_fault_injector(const std::string& owner,
                                                   const std::string& spec) {
  if (spec.empty()) return nullptr;
  const auto parsed = parse_fault_spec(spec);
  if (!parsed) {
    throw std::runtime_error(owner + ": bad --fault-spec '" + spec +
                             "' (want seed:prob:kind[,kind...])");
  }
  return std::make_unique<FaultInjector>(*parsed);
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec) {
  front_io_.read = [this](int fd, void* buf, std::size_t len) {
    return hooked_read(Site::FrontRead, fd, buf, len);
  };
  front_io_.write = [this](int fd, const void* buf, std::size_t len) {
    return hooked_write(Site::FrontWrite, fd, buf, len);
  };
  relay_io_.read = [this](int fd, void* buf, std::size_t len) {
    return hooked_read(Site::RelayRead, fd, buf, len);
  };
  relay_io_.write = [this](int fd, const void* buf, std::size_t len) {
    return hooked_write(Site::RelayWrite, fd, buf, len);
  };
}

bool FaultInjector::decide(Site site, FaultKind kind, std::uint64_t& param) {
  if (!spec_.enabled(kind) || spec_.probability <= 0.0) return false;
  auto& counter =
      counters_[static_cast<std::size_t>(site)][static_cast<std::size_t>(kind)];
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t draw =
      mix64(spec_.seed ^ mix64((static_cast<std::uint64_t>(site) << 8) |
                               static_cast<std::uint64_t>(kind)) ^
            n);
  if (to_unit(draw) >= spec_.probability) return false;
  param = mix64(draw);
  injected_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::accept_should_close() {
  std::uint64_t param = 0;
  return decide(Site::Accept, FaultKind::Close, param);
}

bool FaultInjector::connect_should_refuse() {
  std::uint64_t param = 0;
  return decide(Site::Connect, FaultKind::Refuse, param);
}

std::uint64_t FaultInjector::injected(FaultKind kind) const {
  return injected_[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& count : injected_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

ssize_t FaultInjector::hooked_read(Site site, int fd, void* buf,
                                   std::size_t len) {
  std::uint64_t param = 0;
  if (decide(site, FaultKind::Delay, param)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + param % 25));
  }
  return ::read(fd, buf, len);
}

ssize_t FaultInjector::hooked_write(Site site, int fd, const void* buf,
                                    std::size_t len) {
  std::uint64_t param = 0;
  if (decide(site, FaultKind::Delay, param)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + param % 25));
  }
  if (len >= 2 && decide(site, FaultKind::Truncate, param)) {
    // Deliver a strict prefix that always drops the trailing '\n' AND at
    // least one payload byte: a torn frame must never be parseable as a
    // complete message, or a peer could execute a request the sender
    // believes failed (double execution on retry).
    const std::size_t keep = param % (len - 1);
    std::size_t off = 0;
    while (off < keep) {
      const ssize_t n = ::write(fd, static_cast<const char*>(buf) + off,
                                keep - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  if (len >= 2 && decide(site, FaultKind::Partial, param)) {
    return ::write(fd, buf, 1 + param % (len - 1));
  }
  return ::write(fd, buf, len);
}

}  // namespace pipeopt::net
