#include "titannext/plan.h"

namespace titan::titannext {

OfflinePlan::OfflinePlan(const PlanInputs* inputs, LpPlanResult result) : inputs_(inputs) {
  auto gen = std::make_shared<Generation>();
  gen->result = std::move(result);
  if (inputs_ != nullptr) {
    gen->dc_pos.assign(inputs_->net().world().dcs().size(), -1);
    const auto& dcs = inputs_->dcs();
    for (std::size_t i = 0; i < dcs.size(); ++i)
      gen->dc_pos[static_cast<std::size_t>(dcs[i].value())] = static_cast<int>(i);
    credits_.resize(inputs_->demands().size());
  }
  gen_ = std::move(gen);
}

const LpPlanResult& OfflinePlan::result() const {
  static const LpPlanResult kNone;
  return gen_ != nullptr ? gen_->result : kNone;
}

std::size_t OfflinePlan::credit_slots() const {
  return inputs_->dcs().size() * static_cast<std::size_t>(net::kNumPathTypes);
}

const AssignmentWeights* OfflinePlan::weights_for(int demand_idx, core::SlotIndex t) const {
  if (!valid()) return nullptr;
  const auto& weights = gen_->result.weights;
  if (t < 0 || t >= static_cast<int>(weights.size())) return nullptr;
  const auto& row = weights[static_cast<std::size_t>(t)];
  if (demand_idx < 0 || demand_idx >= static_cast<int>(row.size())) return nullptr;
  const auto& w = row[static_cast<std::size_t>(demand_idx)];
  return w.entries.empty() ? nullptr : &w;
}

std::optional<Assignment> OfflinePlan::pick(int demand_idx, core::SlotIndex t,
                                            core::Rng& rng) const {
  const AssignmentWeights* w = weights_for(demand_idx, t);
  if (w == nullptr) return std::nullopt;

  double total = 0.0;
  for (const auto& e : w->entries) total += e.units;
  // All-zero (or non-finite) units: treat as out of plan. The LP can emit
  // ~0-weight entries; dividing by their zero sum would install NaN
  // credits that poison every later pick of this demand.
  if (!(total > 0.0)) return std::nullopt;

  auto& credits = credits_[static_cast<std::size_t>(demand_idx)];
  if (credits.empty()) credits.assign(credit_slots(), 0.0);

  // Smooth weighted round-robin: every entry earns credit proportional to
  // its plan share at this slot; the richest entry serves this call and
  // pays one unit. Credits persist across slots for the demand.
  const auto slot_of = [&](const AssignmentWeights::Entry& e) {
    return static_cast<std::size_t>(gen_->dc_pos[static_cast<std::size_t>(e.dc.value())]) *
               static_cast<std::size_t>(net::kNumPathTypes) +
           static_cast<std::size_t>(e.path);
  };
  std::size_t best = 0;
  double best_credit = -1e300;
  for (std::size_t i = 0; i < w->entries.size(); ++i) {
    double& c = credits[slot_of(w->entries[i])];
    c += w->entries[i].units / total;
    const double jitter = 1e-12 * rng.uniform();  // break exact ties
    if (c + jitter > best_credit) {
      best_credit = c + jitter;
      best = i;
    }
  }
  credits[slot_of(w->entries[best])] -= 1.0;
  const auto& e = w->entries[best];
  return Assignment{e.dc, e.path};
}

std::optional<Assignment> OfflinePlan::pick(const workload::CallConfig& reduced_shape,
                                            core::SlotIndex t, core::Rng& rng) const {
  if (!valid()) return std::nullopt;
  return pick(inputs_->demand_index(reduced_shape), t, rng);
}

bool OfflinePlan::supports(int demand_idx, core::SlotIndex t, core::DcId dc) const {
  const AssignmentWeights* w = weights_for(demand_idx, t);
  if (w == nullptr) return false;
  for (const auto& e : w->entries)
    if (e.dc == dc) return true;
  return false;
}

bool OfflinePlan::supports(const workload::CallConfig& reduced_shape, core::SlotIndex t,
                           core::DcId dc) const {
  if (!valid()) return false;
  return supports(inputs_->demand_index(reduced_shape), t, dc);
}

void OfflinePlan::carry_credits_from(const OfflinePlan& prev) {
  if (!valid() || prev.inputs_ == nullptr || prev.credits_.empty()) return;
  const auto& demands = inputs_->demands();
  const auto& dcs = inputs_->dcs();
  for (std::size_t d = 0; d < demands.size() && d < credits_.size(); ++d) {
    // Demands match by shape: the top-K cut and its ordering move between
    // generations, the shapes themselves are the stable identity.
    const int pidx = prev.inputs_->demand_index(demands[d].config);
    if (pidx < 0 || static_cast<std::size_t>(pidx) >= prev.credits_.size()) continue;
    const auto& prow = prev.credits_[static_cast<std::size_t>(pidx)];
    if (prow.empty()) continue;
    auto& row = credits_[d];
    row.assign(credit_slots(), 0.0);
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      const std::size_t id = static_cast<std::size_t>(dcs[i].value());
      const int ppos = id < prev.gen_->dc_pos.size() ? prev.gen_->dc_pos[id] : -1;
      if (ppos < 0) continue;
      for (int p = 0; p < net::kNumPathTypes; ++p)
        row[i * static_cast<std::size_t>(net::kNumPathTypes) + static_cast<std::size_t>(p)] =
            prow[static_cast<std::size_t>(ppos) * static_cast<std::size_t>(net::kNumPathTypes) +
                 static_cast<std::size_t>(p)];
    }
  }
}

}  // namespace titan::titannext
