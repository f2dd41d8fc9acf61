// Titan-Next end-to-end pipeline (Fig. 12).
//
// Glues the building blocks: the call-records DB (a workload::Trace), call
// count prediction (Holt-Winters per call config, §6.1/2), call config
// grouping (§6.2, inside PlanInputs), the offline precomputed LP plan
// (§6.3), and the online controller (§6.4). One `DayPlan` covers a
// 24-hour horizon of 30-minute slots; production re-plans every 30 minutes
// with fresh estimates — re-planning frequency is the caller's loop.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "forecast/holt_winters.h"
#include "net/network_db.h"
#include "titannext/controller.h"
#include "titannext/plan.h"
#include "workload/callgen.h"

namespace titan::titannext {

struct PipelineOptions {
  PlanScope scope;
  LpBuildOptions lp;
  // Number of top-volume configs forecast with Holt-Winters; the rest use
  // same-slot-last-week persistence (cheap tail handling).
  int top_k_forecast = 300;
  bool use_reduction = true;  // §6.2 grouping (Table 4 ablates this)
};

struct DayPlan {
  std::unique_ptr<PlanInputs> inputs;
  OfflinePlan plan;
  double forecast_seconds = 0.0;
  // LP work summed over every headroom-relaxation attempt (one solve_plan
  // call each; lp.attempts counts them). lp.solve_seconds covers lp::solve
  // only; model construction is lp.build_seconds.
  PlanLpStats lp;
  [[nodiscard]] bool valid() const { return plan.valid(); }
};

// Per-config forecast of the next `horizon` slots from history
// counts[config][0..history_end); slots past a series' own end read 0.
// Configs ranked by volume; the top `top_k` get Holt-Winters, the rest
// persistence (same slot one week earlier). A fit needs two weekly seasons,
// so with `history_end` under 2 x kSlotsPerWeek every config is persistence
// and hw_configs is 0.
struct ForecastOutput {
  // [config * horizon + slot]: one flat row of `horizon` slots per config.
  std::vector<double> counts;
  int horizon = 0;
  double seconds = 0.0;
  int hw_configs = 0;
  [[nodiscard]] std::size_t configs() const {
    return horizon > 0 ? counts.size() / static_cast<std::size_t>(horizon) : 0;
  }
  [[nodiscard]] std::span<double> series(std::size_t c) {
    return std::span<double>(counts).subspan(c * static_cast<std::size_t>(horizon),
                                             static_cast<std::size_t>(horizon));
  }
  [[nodiscard]] std::span<const double> series(std::size_t c) const {
    return std::span<const double>(counts).subspan(c * static_cast<std::size_t>(horizon),
                                                   static_cast<std::size_t>(horizon));
  }
  [[nodiscard]] CountRows rows() const {
    return CountRows(counts, static_cast<std::size_t>(horizon));
  }
};
// Forecasts into `out`, reusing its buffer: a replan loop keeps one
// ForecastOutput across replans.
void forecast_counts(const std::vector<std::vector<double>>& history, int history_end,
                     int horizon, int top_k, ForecastOutput& out);
[[nodiscard]] ForecastOutput forecast_counts(const std::vector<std::vector<double>>& history,
                                             int history_end, int horizon, int top_k);

class TitanNextPipeline {
 public:
  TitanNextPipeline(const net::NetworkDb& net,
                    std::map<std::pair<int, int>, double> internet_fractions,
                    const PipelineOptions& options = {});

  // Oracle plan (§7): ground-truth counts for [day_begin, day_begin + T).
  [[nodiscard]] DayPlan plan_day_oracle(const workload::Trace& trace,
                                        core::SlotIndex day_begin) const;

  // Practical plan (§8): Holt-Winters forecasts trained on all slots before
  // `day_begin`.
  [[nodiscard]] DayPlan plan_day_forecast(const workload::Trace& trace,
                                          core::SlotIndex day_begin) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

  // Plans directly from per-(config, horizon-slot) counts; `trace` only
  // supplies the config registry. With a warm-start cache the LP solve is
  // seeded from the previous plan's basis (and the cache refreshed) —
  // a replan loop passes one cache across its whole lifetime.
  [[nodiscard]] DayPlan plan_from_counts(const workload::Trace& trace, CountRows counts,
                                         double forecast_seconds,
                                         WarmStartCache* warm = nullptr) const;

 private:
  const net::NetworkDb* net_;
  std::map<std::pair<int, int>, double> fractions_;
  PipelineOptions options_;
};

}  // namespace titan::titannext
