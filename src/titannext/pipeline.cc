#include "titannext/pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>

namespace titan::titannext {

ForecastOutput forecast_counts(const std::vector<std::vector<double>>& history,
                               int history_end, int horizon, int top_k) {
  const auto t0 = std::chrono::steady_clock::now();
  ForecastOutput out;
  out.counts.assign(history.size(), std::vector<double>(static_cast<std::size_t>(horizon), 0.0));
  // A series is read within its own length; slots past its end count as 0.
  const auto observed = [&](std::size_t c) {
    return std::span<const double>(history[c]).first(std::min<std::size_t>(
        history[c].size(), static_cast<std::size_t>(std::max(history_end, 0))));
  };

  // Persistence: same slot one week earlier (zeros when history is short).
  const int season = core::kSlotsPerWeek;
  for (std::size_t c = 0; c < history.size(); ++c) {
    const std::span<const double> series = observed(c);
    for (int h = 0; h < horizon; ++h) {
      const int src = history_end + h - season;
      if (src >= 0 && src < static_cast<int>(series.size()))
        out.counts[c][static_cast<std::size_t>(h)] = series[static_cast<std::size_t>(src)];
    }
  }

  // Holt-Winters replaces persistence for the top `top_k` configs by
  // training volume. A fit needs two full seasons, so with less history
  // nothing is ranked.
  if (history_end >= 2 * season && top_k > 0) {
    std::vector<std::size_t> order(history.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> totals(history.size(), 0.0);
    for (std::size_t c = 0; c < history.size(); ++c)
      for (const double v : observed(c)) totals[c] += v;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return totals[a] > totals[b]; });
    const std::size_t fits = std::min(order.size(), static_cast<std::size_t>(top_k));
    for (std::size_t rank = 0; rank < fits; ++rank) {
      const std::size_t c = order[rank];
      if (!(totals[c] > 0.0)) continue;
      std::span<const double> series = observed(c);
      std::vector<double> padded;
      if (series.size() < static_cast<std::size_t>(history_end)) {
        padded.assign(series.begin(), series.end());
        padded.resize(static_cast<std::size_t>(history_end), 0.0);
        series = padded;
      }
      out.counts[c] =
          forecast::HoltWinters::forecast(forecast::HoltWinters::fit_auto(series, season), horizon);
      ++out.hw_configs;
    }
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

TitanNextPipeline::TitanNextPipeline(const net::NetworkDb& net,
                                     std::map<std::pair<int, int>, double> internet_fractions,
                                     const PipelineOptions& options)
    : net_(&net), fractions_(std::move(internet_fractions)), options_(options) {}

DayPlan TitanNextPipeline::plan_from_counts(const workload::Trace& trace,
                                            const std::vector<std::vector<double>>& counts,
                                            double forecast_seconds,
                                            WarmStartCache* warm) const {
  DayPlan day;
  day.forecast_seconds = forecast_seconds;

  // Tight provisioning plus forecast error can make the plan infeasible
  // (compute cap or E2E bound); production would scale MP servers for a
  // surge (§6.4 "handling surge in calls"). Mirror that: retry with
  // progressively relaxed compute headroom and E2E bound.
  PlanScope scope = options_.scope;
  LpBuildOptions lp = options_.lp;
  for (int attempt = 0; attempt < 3; ++attempt) {
    day.inputs = std::make_unique<PlanInputs>(*net_, scope, fractions_);
    day.inputs->set_demand(trace.configs(), counts, options_.use_reduction);
    LpPlanResult result = solve_plan(*day.inputs, lp, warm);
    day.lp += result;
    if (result.status != lp::SolveStatus::kInfeasible) {
      day.plan = OfflinePlan(day.inputs.get(), std::move(result));
      return day;
    }
    scope.compute_headroom *= 1.3;
    if (lp.e2e_bound_ms > 0.0) lp.e2e_bound_ms *= 1.3;
  }
  day.plan = OfflinePlan(day.inputs.get(), LpPlanResult{});
  return day;
}

DayPlan TitanNextPipeline::plan_day_oracle(const workload::Trace& trace,
                                           core::SlotIndex day_begin) const {
  const int horizon = options_.scope.timeslots;
  const auto all_counts = trace.config_active_counts();
  std::vector<std::vector<double>> window(all_counts.size(),
                                          std::vector<double>(static_cast<std::size_t>(horizon), 0.0));
  for (std::size_t c = 0; c < all_counts.size(); ++c)
    for (int h = 0; h < horizon; ++h) {
      const int t = day_begin + h;
      if (t < static_cast<int>(all_counts[c].size()))
        window[c][static_cast<std::size_t>(h)] = all_counts[c][static_cast<std::size_t>(t)];
    }
  return plan_from_counts(trace, window, 0.0);
}

DayPlan TitanNextPipeline::plan_day_forecast(const workload::Trace& trace,
                                             core::SlotIndex day_begin) const {
  const int horizon = options_.scope.timeslots;
  const auto all_counts = trace.config_active_counts();
  const ForecastOutput fc =
      forecast_counts(all_counts, day_begin, horizon, options_.top_k_forecast);
  return plan_from_counts(trace, fc.counts, fc.seconds);
}

}  // namespace titan::titannext
