#include "forecast/holt_winters.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/stats.h"

namespace titan::forecast {

namespace {

// Runs the additive Holt-Winters recursion over the series, returning the
// final state and accumulating one-step-ahead SSE.
HoltWintersFit run(std::span<const double> series, const HoltWintersParams& p) {
  const int m = p.season_length;
  const auto n = static_cast<int>(series.size());
  if (m < 2) throw std::invalid_argument("HoltWinters: season_length must be >= 2");
  if (n < 2 * m) throw std::invalid_argument("HoltWinters: need at least two seasons of data");

  HoltWintersFit fit;
  fit.params = p;

  // Initial level/trend from the first two seasons; initial seasonal indices
  // as deviations from the first-season mean.
  double mean1 = 0.0, mean2 = 0.0;
  for (int i = 0; i < m; ++i) mean1 += series[static_cast<std::size_t>(i)];
  for (int i = m; i < 2 * m; ++i) mean2 += series[static_cast<std::size_t>(i)];
  mean1 /= m;
  mean2 /= m;

  double level = mean1;
  double trend = (mean2 - mean1) / m;
  std::vector<double> seasonal(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) seasonal[static_cast<std::size_t>(i)] = series[static_cast<std::size_t>(i)] - mean1;

  double sse = 0.0;
  for (int t = 0; t < n; ++t) {
    const double s_prev = seasonal[static_cast<std::size_t>(t % m)];
    const double forecast = level + trend + s_prev;
    const double err = series[static_cast<std::size_t>(t)] - forecast;
    sse += err * err;

    const double x = series[static_cast<std::size_t>(t)];
    const double level_prev = level;
    level = p.alpha * (x - s_prev) + (1.0 - p.alpha) * (level + trend);
    trend = p.beta * (level - level_prev) + (1.0 - p.beta) * trend;
    seasonal[static_cast<std::size_t>(t % m)] =
        p.gamma * (x - level) + (1.0 - p.gamma) * s_prev;
  }

  fit.level = level;
  fit.trend = trend;
  fit.seasonal = std::move(seasonal);
  fit.n_obs = n;
  fit.training_sse = sse;
  return fit;
}

}  // namespace

HoltWintersFit HoltWinters::fit(std::span<const double> series,
                                const HoltWintersParams& params) {
  return run(series, params);
}

HoltWintersFit HoltWinters::fit_auto(std::span<const double> series, int season_length) {
  // Coarse grid, then one refinement pass around the best cell. Call-count
  // series are smooth enough that this lands within a hair of the optimum.
  const std::vector<double> coarse = {0.05, 0.15, 0.3, 0.5, 0.75};
  const std::vector<double> trend_grid = {0.0, 0.02, 0.1};
  const std::vector<double> season_grid = {0.05, 0.2, 0.5};

  HoltWintersFit best;
  best.training_sse = std::numeric_limits<double>::infinity();
  auto consider = [&](double a, double b, double g) {
    HoltWintersParams p{a, b, g, season_length};
    const HoltWintersFit f = run(series, p);
    if (f.training_sse < best.training_sse) best = f;
  };

  for (double a : coarse)
    for (double b : trend_grid)
      for (double g : season_grid) consider(a, b, g);

  const HoltWintersParams center = best.params;
  for (double da : {-0.05, 0.0, 0.05})
    for (double dg : {-0.1, 0.0, 0.1}) {
      const double a = std::clamp(center.alpha + da, 0.01, 0.95);
      const double g = std::clamp(center.gamma + dg, 0.01, 0.95);
      consider(a, center.beta, g);
    }
  return best;
}

std::vector<double> HoltWinters::forecast(const HoltWintersFit& fit, int horizon) {
  const int m = fit.params.season_length;
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(horizon));
  // Seasonal indices continue from the end of training: the forecast for
  // step h targets absolute index n_obs + h - 1, whose phase is taken
  // modulo the season length.
  for (int h = 1; h <= horizon; ++h) {
    const double s = fit.seasonal[static_cast<std::size_t>((fit.n_obs + h - 1) % m)];
    out.push_back(std::max(0.0, fit.level + fit.trend * h + s));
  }
  return out;
}

ForecastError evaluate_forecast(const std::vector<double>& actual,
                                const std::vector<double>& predicted) {
  ForecastError e;
  if (actual.empty() || actual.size() != predicted.size()) return e;
  double peak = 0.0;
  for (double v : actual) peak = std::max(peak, v);
  if (peak <= 0.0) return e;
  e.rmse_normalized = core::rmse(actual, predicted) / peak;
  e.mae_normalized = core::mae(actual, predicted) / peak;
  return e;
}

}  // namespace titan::forecast
