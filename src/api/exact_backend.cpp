#include "api/exact_backend.hpp"

#include <utility>

#include "api/adapters.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/enumeration.hpp"
#include "exact/mip/branch_and_cut.hpp"

namespace pipeopt::api {
namespace {

exact::MappingKind to_exact_kind(MappingKind kind) {
  return kind == MappingKind::OneToOne ? exact::MappingKind::OneToOne
                                       : exact::MappingKind::Interval;
}

exact::Objective to_exact_objective(Objective objective) {
  switch (objective) {
    case Objective::Period: return exact::Objective::Period;
    case Objective::Latency: return exact::Objective::Latency;
    case Objective::Energy: return exact::Objective::Energy;
  }
  return exact::Objective::Period;
}

/// Speed modes are enumerated exactly when energy is involved (objective or
/// budget); otherwise the §4 max-speed normalization applies. Shared by
/// every backend so they search the same mapping space.
bool modes_enumerated(const SolveRequest& r) {
  return r.objective == Objective::Energy ||
         r.constraints.energy_budget.has_value();
}

/// Branch-and-bound period minimization: bit-identical to enumeration but
/// with admissible pruning, so it is tried first within the Exact tier.
class BranchBoundBackend final : public ExactBackend {
 public:
  BranchBoundBackend()
      : ExactBackend({.name = "branch-and-bound",
                      .summary = "pruned exact period search, any platform",
                      .rank = 0}) {}

  bool supports(const core::Problem&,
                const SolveRequest& r) const override {
    return r.objective == Objective::Period &&
           detail::no_constraints(r.constraints);
  }

  std::optional<exact::ExactResult> minimize(
      const core::Problem& p, const SolveRequest& r) const override {
    // The warm-start hint prunes strictly-worse subtrees only, so the
    // returned value/mapping equal an unhinted solve (request.hpp).
    return exact::branch_bound_min_period(p, to_exact_kind(r.kind),
                                          r.node_budget, r.cancel,
                                          r.warm_start);
  }
};

/// Exhaustive enumeration: the optimality oracle. Handles every objective
/// and constraint combination of the paper.
class EnumerationBackend final : public ExactBackend {
 public:
  EnumerationBackend()
      : ExactBackend(
            {.name = "exact-enumeration",
             .summary = "exhaustive search, any objective/constraints/platform",
             .rank = 10}) {}

  bool supports(const core::Problem&, const SolveRequest&) const override {
    return true;
  }

  std::optional<exact::ExactResult> minimize(
      const core::Problem& p, const SolveRequest& r) const override {
    exact::EnumerationOptions options;
    options.kind = to_exact_kind(r.kind);
    options.enumerate_modes = modes_enumerated(r);
    options.node_limit = r.node_budget;
    options.cancel = r.cancel;
    return exact::exact_minimize(p, options, to_exact_objective(r.objective),
                                 r.constraints);
  }
};

/// The structurally independent oracle: a MIP formulation of the mapping
/// problem solved by home-grown branch-and-cut (exact/mip/). Shares no
/// search code with the recursive engines — only core::evaluate arithmetic,
/// which is the quantity under test.
class MipBackend final : public ExactBackend {
 public:
  MipBackend()
      : ExactBackend({.name = "mip-branch-cut",
                      .summary = "independent MIP formulation, "
                                 "branch-and-cut over the LP relaxation",
                      .rank = 20}) {}

  bool supports(const core::Problem&, const SolveRequest&) const override {
    return true;
  }

  std::optional<exact::ExactResult> minimize(
      const core::Problem& p, const SolveRequest& r) const override {
    exact::mip::MipOptions options;
    options.kind = to_exact_kind(r.kind);
    options.enumerate_modes = modes_enumerated(r);
    options.node_limit = r.node_budget;
    options.cancel = r.cancel;
    return exact::mip::mip_minimize(p, options,
                                    to_exact_objective(r.objective),
                                    r.constraints);
  }
};

}  // namespace

const std::vector<const ExactBackend*>& exact_backends() {
  static const std::vector<const ExactBackend*>& backends = *[] {
    auto* list = new std::vector<const ExactBackend*>;
    list->push_back(new BranchBoundBackend());
    list->push_back(new EnumerationBackend());
    list->push_back(new MipBackend());
    return list;
  }();
  return backends;
}

const ExactBackend* find_exact_backend(std::string_view name) {
  for (const ExactBackend* backend : exact_backends())
    if (backend->info().name == name) return backend;
  return nullptr;
}

}  // namespace pipeopt::api
