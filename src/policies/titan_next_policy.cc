#include "policies/titan_next_policy.h"

namespace titan::policies {

PolicyRun TitanNextPolicy::run(const workload::Trace& eval_trace,
                               const workload::Trace& history, core::Rng& rng) {
  PolicyRun out;
  out.policy_name = name();
  out.assignments.resize(eval_trace.calls().size());

  const titannext::TitanNextPipeline pipeline(*ctx_->net, ctx_->internet_fractions,
                                              options_.pipeline);
  const int slots_per_day = options_.pipeline.scope.timeslots;
  const int days = (eval_trace.num_slots() + slots_per_day - 1) / slots_per_day;

  // Combined count history (training weeks + already-elapsed eval days)
  // for the practical mode's forecasts.
  const auto hist_counts = history.config_active_counts();
  const auto eval_counts = eval_trace.config_active_counts();
  const std::size_t n_configs = eval_counts.size();

  for (int day = 0; day < days; ++day) {
    const int day_begin = day * slots_per_day;
    titannext::DayPlan plan;
    if (options_.oracle) {
      plan = pipeline.plan_day_oracle(eval_trace, day_begin);
    } else {
      std::vector<std::vector<double>> combined(n_configs);
      for (std::size_t c = 0; c < n_configs; ++c) {
        combined[c] = c < hist_counts.size() ? hist_counts[c] : std::vector<double>{};
        combined[c].resize(hist_counts.empty() ? 0 : hist_counts[0].size(), 0.0);
        combined[c].insert(combined[c].end(), eval_counts[c].begin(),
                           eval_counts[c].begin() + day_begin);
      }
      const int history_end = static_cast<int>(combined.empty() ? 0 : combined[0].size());
      const auto fc = titannext::forecast_counts(combined, history_end, slots_per_day,
                                                 options_.pipeline.top_k_forecast);
      plan = pipeline.plan_from_counts(eval_trace, fc.counts, fc.seconds);
    }
    out.plan_seconds += plan.lp.solve_seconds + plan.forecast_seconds;

    titannext::ControllerOptions copts;
    copts.use_reduction = options_.pipeline.use_reduction;
    titannext::OnlineController controller(*plan.inputs, plan.plan, copts);

    // Pinned-ILP approximation: each country's dominant DC across the
    // day's plan (all shapes touching the country, all slots).
    std::map<int, core::DcId> pinned_dc;
    if (options_.pin_intra_country && plan.valid()) {
      std::map<int, std::map<int, double>> units_by_country_dc;
      const auto& demands = plan.inputs->demands();
      for (const auto& slot_weights : plan.plan.result().weights) {
        for (std::size_t c = 0; c < slot_weights.size(); ++c) {
          for (const auto& e : slot_weights[c].entries)
            for (const auto& [country, count] : demands[c].config.participants)
              units_by_country_dc[country.value()][e.dc.value()] += e.units * count;
        }
      }
      for (const auto& [country, by_dc] : units_by_country_dc) {
        int best_dc = -1;
        double best_units = -1.0;
        for (const auto& [dc, units] : by_dc)
          if (units > best_units) {
            best_units = units;
            best_dc = dc;
          }
        if (best_dc >= 0) pinned_dc[country] = core::DcId(best_dc);
      }
    }

    for (std::size_t i = 0; i < eval_trace.calls().size(); ++i) {
      const auto& call = eval_trace.calls()[i];
      if (call.start_slot / slots_per_day != day) continue;
      const auto& config = eval_trace.configs().get(call.config);
      const int slot_in_day = call.start_slot - day_begin;

      if (options_.oracle) {
        // Full config known up front: assign straight from the plan. A call
        // whose exact shape fell outside the planned top-K still follows
        // the plan for the first joiner's intra-country shape (the dominant
        // shape for that country) before resorting to nearest-DC fallback.
        const auto reduced = options_.pipeline.use_reduction
                                 ? workload::reduce(config).config
                                 : config;
        auto picked = plan.plan.pick(reduced, slot_in_day, rng);
        if (!picked) {
          workload::CallConfig intra;
          intra.participants = {{call.first_joiner, 1}};
          intra.media = config.media;
          picked = plan.plan.pick(intra, slot_in_day, rng);
        }
        if (picked) {
          out.assignments[i] = {picked->dc, picked->path};
        } else {
          const auto fb = controller.fallback(call.first_joiner);
          out.assignments[i] = {fb.dc, fb.path};
          ++out.fallback_assignments;
        }
        // Pinning overrides the DC; the routing option survives only where
        // the plan supports the pinned DC for this shape.
        if (options_.pin_intra_country) {
          const auto it = pinned_dc.find(call.first_joiner.value());
          if (it != pinned_dc.end() && out.assignments[i].dc != it->second) {
            out.assignments[i].dc = it->second;
            if (!plan.plan.supports(reduced, slot_in_day, it->second))
              out.assignments[i].path = net::PathType::kWan;
          }
        }
      } else {
        const auto initial =
            controller.assign_initial(call.first_joiner, config.media, slot_in_day, rng);
        const auto converged = controller.converge(initial, config, slot_in_day, rng);
        out.assignments[i] = {converged.final_assignment.dc, converged.final_assignment.path};
        if (converged.dc_migration) ++out.dc_migrations;
        if (converged.route_change) ++out.route_changes;
        if (!initial.from_plan) ++out.fallback_assignments;
      }
    }
  }
  return out;
}

}  // namespace titan::policies
