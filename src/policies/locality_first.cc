#include "policies/locality_first.h"

#include <algorithm>
#include <limits>

namespace titan::policies {

PolicyRun LocalityFirstPolicy::run(const workload::Trace& eval_trace,
                                   const workload::Trace& history, core::Rng& rng) {
  return options_.oracle ? run_oracle(eval_trace, rng) : run_online(eval_trace, history, rng);
}

PolicyRun LocalityFirstPolicy::run_oracle(const workload::Trace& eval_trace,
                                          core::Rng& rng) const {
  PolicyRun out;
  out.policy_name = name();
  out.assignments.resize(eval_trace.calls().size());

  titannext::PipelineOptions popts;
  popts.scope = options_.scope;
  popts.lp.objective = options_.use_max_e2e_objective
                           ? titannext::Objective::kMinimizeTotalMaxE2e
                           : titannext::Objective::kMinimizeTotalLatency;
  popts.lp.e2e_bound_ms = 0.0;  // LF has no C4 bound
  const titannext::TitanNextPipeline pipeline(*ctx_->net, ctx_->internet_fractions, popts);

  const int slots_per_day = options_.scope.timeslots;
  const int days = (eval_trace.num_slots() + slots_per_day - 1) / slots_per_day;
  for (int day = 0; day < days; ++day) {
    const titannext::DayPlan plan = pipeline.plan_day_oracle(eval_trace, day * slots_per_day);
    out.plan_seconds += plan.lp.solve_seconds;
    for (std::size_t i = 0; i < eval_trace.calls().size(); ++i) {
      const auto& call = eval_trace.calls()[i];
      if (call.start_slot / slots_per_day != day) continue;
      const auto& config = eval_trace.configs().get(call.config);
      const auto reduced = workload::reduce(config).config;
      const auto picked =
          plan.plan.pick(reduced, call.start_slot - day * slots_per_day, rng);
      if (picked) {
        out.assignments[i] = {picked->dc, picked->path};
      } else {
        // Nearest DC by WAN latency.
        core::DcId best = ctx_->dcs.front();
        double best_rtt = std::numeric_limits<double>::infinity();
        for (const auto dc : ctx_->dcs) {
          const double rtt = ctx_->net->latency().base_rtt_ms(call.first_joiner, dc,
                                                              net::PathType::kWan);
          if (rtt < best_rtt) {
            best_rtt = rtt;
            best = dc;
          }
        }
        out.assignments[i] = {best, net::PathType::kWan};
        ++out.fallback_assignments;
      }
    }
  }
  return out;
}

PolicyRun LocalityFirstPolicy::run_online(const workload::Trace& eval_trace,
                                          const workload::Trace& history,
                                          core::Rng& rng) const {
  (void)rng;
  PolicyRun out;
  out.policy_name = name();
  out.assignments.resize(eval_trace.calls().size());

  // Capacities provisioned from the training window (never the eval week).
  const int hist_slots = std::min(history.num_slots(), core::kSlotsPerWeek);
  auto hist_counts = history.config_active_counts();
  // Use the trailing training week to size capacity.
  for (auto& series : hist_counts) {
    if (static_cast<int>(series.size()) > hist_slots)
      series.erase(series.begin(), series.end() - hist_slots);
  }
  titannext::PlanScope prov_scope = options_.scope;
  prov_scope.timeslots = hist_slots;
  titannext::PlanInputs prov(*ctx_->net, prov_scope, ctx_->internet_fractions);
  prov.set_demand(history.configs(), hist_counts, true);

  // Per-slot usage trackers.
  const int slots = eval_trace.num_slots();
  std::vector<std::vector<double>> cores_used(
      static_cast<std::size_t>(slots), std::vector<double>(ctx_->dcs.size(), 0.0));
  std::vector<std::vector<double>> inet_used(
      static_cast<std::size_t>(slots), std::vector<double>(ctx_->dcs.size(), 0.0));

  for (std::size_t i = 0; i < eval_trace.calls().size(); ++i) {
    const auto& call = eval_trace.calls()[i];
    const auto& config = eval_trace.configs().get(call.config);

    // Buckets sorted by latency from the first joiner.
    struct Bucket {
      std::size_t dc_idx;
      net::PathType path;
      double latency;
    };
    std::vector<Bucket> buckets;
    for (std::size_t d = 0; d < ctx_->dcs.size(); ++d) {
      const auto dc = ctx_->dcs[d];
      buckets.push_back({d, net::PathType::kWan,
                         ctx_->net->latency().base_rtt_ms(call.first_joiner, dc,
                                                          net::PathType::kWan)});
      if (ctx_->fraction(call.first_joiner, dc) > 0.0)
        buckets.push_back({d, net::PathType::kInternet,
                           ctx_->net->latency().base_rtt_ms(call.first_joiner, dc,
                                                            net::PathType::kInternet)});
    }
    std::sort(buckets.begin(), buckets.end(),
              [](const Bucket& a, const Bucket& b) { return a.latency < b.latency; });

    const double cores = config.compute_cores();
    const double mbps = config.network_mbps();
    auto fits = [&](const Bucket& b) {
      const auto dc = ctx_->dcs[b.dc_idx];
      for (int s = call.start_slot;
           s < std::min(slots, call.start_slot + call.duration_slots); ++s) {
        if (cores_used[static_cast<std::size_t>(s)][b.dc_idx] + cores > prov.dc_capacity(dc))
          return false;
        if (b.path == net::PathType::kInternet &&
            inet_used[static_cast<std::size_t>(s)][b.dc_idx] + mbps >
                prov.internet_capacity(dc))
          return false;
      }
      return true;
    };

    const Bucket* chosen = nullptr;
    for (const auto& b : buckets)
      if (fits(b)) {
        chosen = &b;
        break;
      }
    if (chosen == nullptr) {
      chosen = &buckets.front();  // overflow: nearest bucket regardless
      ++out.fallback_assignments;
    }
    for (int s = call.start_slot; s < std::min(slots, call.start_slot + call.duration_slots);
         ++s) {
      cores_used[static_cast<std::size_t>(s)][chosen->dc_idx] += cores;
      if (chosen->path == net::PathType::kInternet)
        inet_used[static_cast<std::size_t>(s)][chosen->dc_idx] += mbps;
    }
    out.assignments[i] = {ctx_->dcs[chosen->dc_idx], chosen->path};
  }
  return out;
}

}  // namespace titan::policies
