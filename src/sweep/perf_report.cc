#include "sweep/perf_report.h"

#include <cmath>
#include <cstdio>

namespace titan::sweep {

namespace {

// Pulls `path.field` out of a scenario entry, tolerating absence.
bool get_number(const Json& scenario, const char* block, const char* field, double* out) {
  if (!scenario.has(block)) return false;
  const Json& b = scenario.at(block);
  if (!b.has(field)) return false;
  *out = b.at(field).as_number();
  return true;
}

}  // namespace

Json latency_json(const obs::Histogram& h) {
  Json out = Json::object();
  out.set("count", Json::number(static_cast<double>(h.total_count())));
  out.set("mean", Json::number(h.mean()));
  out.set("p50", Json::number(h.quantile(0.50)));
  out.set("p90", Json::number(h.quantile(0.90)));
  out.set("p99", Json::number(h.quantile(0.99)));
  out.set("max", Json::number(h.max()));
  return out;
}

LatencyBudgetCheck latency_budget_check(const Json& budget, const Json& report) {
  LatencyBudgetCheck out;
  const auto fail = [&](const std::string& why) {
    out.ok = false;
    out.text = "latency budget FAIL: " + why + "\n";
    return out;
  };

  if (!budget.has("budget") || !budget.at("budget").has("p99_us"))
    return fail("budget file has no budget.p99_us");
  if (budget.has("schema_version") && report.has("schema_version") &&
      !(budget.at("schema_version") == report.at("schema_version")))
    return fail("schema_version mismatch (budget " + budget.at("schema_version").dump() +
                ", report " + report.at("schema_version").dump() + ")");

  // Every config key the budget pins must match the report exactly: the
  // p99 bound was chosen at that arrival rate and window layout.
  if (budget.has("config")) {
    if (!report.has("config")) return fail("report has no config block");
    const Json& rc = report.at("config");
    for (const auto& [key, pinned] : budget.at("config").members()) {
      if (!rc.has(key)) return fail("report config is missing pinned key \"" + key + "\"");
      if (!(rc.at(key) == pinned))
        return fail("config mismatch on \"" + key + "\" (budget " + pinned.dump() +
                    ", report " + rc.at(key).dump() + ") — not comparable");
    }
  }

  if (!report.has("scenarios") || report.at("scenarios").size() == 0)
    return fail("report has no scenarios");
  const Json& s = report.at("scenarios").at(std::size_t{0});
  double p99 = 0.0, count = 0.0;
  if (!get_number(s, "assign_latency_us", "p99", &p99))
    return fail("report has no assign_latency_us.p99");
  if (!std::isfinite(p99)) return fail("measured p99 is not finite");
  get_number(s, "assign_latency_us", "count", &count);

  const double budget_p99 = budget.at("budget").at("p99_us").as_number();
  double min_samples = 0.0;
  if (budget.at("budget").has("min_samples"))
    min_samples = budget.at("budget").at("min_samples").as_number();
  if (count < min_samples) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "only %.0f measured samples (budget requires >= %.0f)",
                  count, min_samples);
    return fail(buf);
  }
  char buf[160];
  if (p99 > budget_p99) {
    std::snprintf(buf, sizeof buf, "measured p99 %.2f us exceeds the %.2f us budget (%.0f samples)",
                  p99, budget_p99, count);
    return fail(buf);
  }
  out.ok = true;
  std::snprintf(buf, sizeof buf,
                "latency budget OK: p99 %.2f us within the %.2f us budget (%.0f samples)\n",
                p99, budget_p99, count);
  out.text = buf;
  return out;
}

}  // namespace titan::sweep
