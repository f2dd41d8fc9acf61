// Offline precomputed assignment plan (§6.1 building block 4).
//
// Wraps the LP solution into the runtime lookup structure the online
// controller uses: for a (timeslot, reduced config) it exposes the
// fractional assignment weights over (MP DC, routing option) and supports
// weighted-random picks (§6.4: "use all the counts ... as weights and use
// weighted random to pick the assignment").
//
// The hot-path API is id-based: callers resolve a shape to its demand
// index ONCE per call (PlanInputs::demand_index or the controller's
// cached/flat-table ids) and then pick/supports are pure array walks. The
// shape-based overloads remain for cold paths (policies, evacuation
// retargeting) and simply resolve-then-delegate.
#pragma once

#include <memory>
#include <optional>

#include "core/rng.h"
#include "titannext/lp_builder.h"

namespace titan::titannext {

struct Assignment {
  core::DcId dc;
  net::PathType path = net::PathType::kWan;
  // An assignment with no live DC to land on — the controller's explicit
  // reject result when every in-scope DC is fully drained.
  [[nodiscard]] bool valid() const { return dc.valid(); }
};

class OfflinePlan {
 public:
  OfflinePlan() = default;
  OfflinePlan(const PlanInputs* inputs, LpPlanResult result);

  [[nodiscard]] bool valid() const {
    return inputs_ != nullptr && result().status == lp::SolveStatus::kOptimal;
  }
  [[nodiscard]] const LpPlanResult& result() const;

  // Assignment draw for the demand at slot t; nullopt when the demand is
  // out of plan scope or the plan has no units for it at t (an all-zero
  // weight row counts as "no units": dividing by a zero total would poison
  // the credit state with NaNs).
  //
  // The paper's controller uses the plan counts as weights for a weighted-
  // random pick (§6.4); at production scale (millions of calls) the law of
  // large numbers makes the realized split match the plan. Our scaled-down
  // traces have thousands of calls, where independent random draws would
  // inflate the realized per-link peaks well above the fractional optimum,
  // so we realize the same distribution deterministically with smooth
  // weighted round-robin (per-entry credit counters). `rng` only breaks
  // exact credit ties.
  [[nodiscard]] std::optional<Assignment> pick(int demand_idx, core::SlotIndex t,
                                               core::Rng& rng) const;
  [[nodiscard]] std::optional<Assignment> pick(const workload::CallConfig& reduced_shape,
                                               core::SlotIndex t, core::Rng& rng) const;

  // True when `dc` carries positive weight for the demand at slot t — the
  // controller keeps a call where it is if its current DC is in the plan's
  // support, avoiding gratuitous migrations.
  [[nodiscard]] bool supports(int demand_idx, core::SlotIndex t, core::DcId dc) const;
  [[nodiscard]] bool supports(const workload::CallConfig& reduced_shape, core::SlotIndex t,
                              core::DcId dc) const;

  // Carries `prev`'s smooth-WRR credit state into this (freshly
  // constructed) plan, matching demands by shape and credit entries by
  // (dc, path) — the keying credits always had. The replan loop calls this
  // at every plan swap so smoothing spans plan generations instead of
  // restarting: at a rolling cadence a restart every interval lets the
  // realized mix drift toward round-robin and away from the plan's
  // weights. `prev`'s inputs must still be alive (call before releasing
  // the previous generation). A default-constructed or invalid `prev` is a
  // no-op.
  void carry_credits_from(const OfflinePlan& prev);

 private:
  [[nodiscard]] const AssignmentWeights* weights_for(int demand_idx, core::SlotIndex t) const;
  [[nodiscard]] std::size_t credit_slots() const;

  // What a plan generation's copies share, immutable once built: the LP
  // result, and the dense position in inputs_->dcs() of each dc id value
  // (-1 out of scope). A copy of a plan copies only the credits below.
  struct Generation {
    LpPlanResult result;
    std::vector<int> dc_pos;
  };

  const PlanInputs* inputs_ = nullptr;
  std::shared_ptr<const Generation> gen_;
  // Smooth-WRR credit state, [demand][dc_pos * net::kNumPathTypes + path],
  // rows allocated on first pick of the demand. Keyed by (dc, path) so the
  // smoothing carries across timeslots: with only a handful of calls per
  // (slot, config) cell, per-slot exactness is impossible and cross-slot
  // smoothing realizes the plan's mix over the day instead.
  mutable std::vector<std::vector<double>> credits_;
};

}  // namespace titan::titannext
