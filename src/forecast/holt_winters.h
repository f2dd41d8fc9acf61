// Holt-Winters triple exponential smoothing (§6.1 building block 2).
//
// Titan-Next forecasts the number of calls per call config for the next
// 24 hours in 30-minute slots, training on 4 weeks of history. Call volume
// has strong daily and weekly seasonality, so we use the additive
// formulation with a weekly season (336 slots of 30 minutes). Smoothing
// parameters are fitted by coarse-to-fine grid search minimizing one-step-
// ahead squared error, mirroring statsmodels' default behaviour closely
// enough for the paper's accuracy analysis (Fig. 20).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace titan::forecast {

struct HoltWintersParams {
  double alpha = 0.3;  // level
  double beta = 0.05;  // trend
  double gamma = 0.2;  // seasonal
  int season_length = 336;
};

struct HoltWintersFit {
  HoltWintersParams params;
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> seasonal;  // season_length entries
  int n_obs = 0;                 // training length (fixes forecast phase)
  double training_sse = 0.0;
};

class HoltWinters {
 public:
  // Fits with fixed parameters. `series` must span at least two full
  // seasons; throws std::invalid_argument otherwise.
  static HoltWintersFit fit(std::span<const double> series, const HoltWintersParams& params);

  // Grid-searches (alpha, beta, gamma) minimizing one-step-ahead SSE.
  static HoltWintersFit fit_auto(std::span<const double> series, int season_length);

  // Point forecasts for the next `horizon` steps after the end of the
  // training series. Negative forecasts are clamped to zero (call counts).
  static std::vector<double> forecast(const HoltWintersFit& fit, int horizon);
};

// Normalized forecast error summary for Fig. 20: errors are normalized to
// the series' peak so elephant and mice configs weigh equally.
struct ForecastError {
  double rmse_normalized = 0.0;
  double mae_normalized = 0.0;
};
[[nodiscard]] ForecastError evaluate_forecast(const std::vector<double>& actual,
                                              const std::vector<double>& predicted);

}  // namespace titan::forecast
