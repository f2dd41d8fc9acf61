// Fig. 20: CDF of Holt-Winters forecast error across call configs,
// normalized to each config's peak so elephants and mice weigh equally.
// The paper reports median MAE 4.9% and median RMSE 10.6%, with 95.6%
// (89.7%) of configs under 20% normalized MAE (RMSE).
#include <algorithm>

#include "bench/common.h"
#include "core/stats.h"
#include "forecast/holt_winters.h"
#include "titannext/pipeline.h"

int main(int argc, char** argv) {
  using namespace titan;
  const bench::Cli cli = bench::parse_cli(argc, argv);
  bench::Env env{cli};
  bench::print_header("Holt-Winters prediction error across call configs", "Fig. 20");

  // 4 weeks of training + 1 day evaluated, per the paper's cadence. The
  // paper predicts call counts per *call config* (not reduced).
  const auto split = env.workload(700.0);
  const auto history = split.history.config_counts();
  const auto eval_counts = split.eval.config_counts();
  const int horizon = core::kSlotsPerDay;
  const int train_end = split.history.num_slots();

  const int top_k = 300;
  const auto fc = titannext::forecast_counts(history, train_end, horizon, top_k);

  const auto by_volume = split.history.configs_by_volume();
  std::vector<double> maes, rmses;
  for (int rank = 0; rank < top_k && rank < static_cast<int>(by_volume.size()); ++rank) {
    const auto cfg =
        static_cast<std::size_t>(by_volume[static_cast<std::size_t>(rank)].value());
    std::vector<double> actual(eval_counts[cfg].begin(), eval_counts[cfg].begin() + horizon);
    double peak = 0.0;
    for (const double v : actual) peak = std::max(peak, v);
    if (peak < 10.0) continue;  // skip configs with no meaningful eval-day volume
    const auto predicted = fc.series(cfg);
    const auto err = forecast::evaluate_forecast(
        actual, std::vector<double>(predicted.begin(), predicted.end()));
    maes.push_back(err.mae_normalized);
    rmses.push_back(err.rmse_normalized);
  }

  core::TextTable t({"metric", "P25", "P50", "P75", "P90", "share < 20%"});
  auto row = [&](const std::string& name, std::vector<double> v) {
    int under = 0;
    for (const double x : v) under += x < 0.20;
    const double share = static_cast<double>(under) / static_cast<double>(v.size());
    const auto qs = core::quantiles(std::move(v), {0.25, 0.5, 0.75, 0.9});
    t.add_row({name, core::TextTable::pct(qs[0]), core::TextTable::pct(qs[1]),
               core::TextTable::pct(qs[2]), core::TextTable::pct(qs[3]),
               core::TextTable::pct(share)});
  };
  row("MAE (normalized)", maes);
  row("RMSE (normalized)", rmses);
  std::printf("%s\n", t.render().c_str());
  std::printf("configs evaluated: %zu (with >= 10 calls in the peak eval slot)\n", maes.size());
  std::printf("paper: median MAE 4.9%%, median RMSE 10.6%%; 95.6%% of configs\n"
              "under 20%% MAE, 89.7%% under 20%% RMSE.\n");
  return 0;
}
