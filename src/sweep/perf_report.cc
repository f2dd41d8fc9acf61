#include "sweep/perf_report.h"

#include <cmath>
#include <cstdio>

#include "sweep/serialize.h"
#include "sweep/sweep.h"

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

std::string format_rate(double v) {
  char buf[48];
  if (v >= 1e6)
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  else if (v >= 1e3)
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string format_delta(double from, double to) {
  if (from <= 0.0) return "(n/a)";
  char buf[32];
  std::snprintf(buf, sizeof buf, "(%+.1f%%)", (to - from) / from * 100.0);
  return buf;
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

Json perf_scenario_json(const sim::SimResult& r) {
  Json det = Json::object();
  Json wall = Json::object();
  for (const MetricDef& m : metric_table())
    (m.wall_clock ? wall : det).set(m.name, Json::number(m.value(r)));

  Json out = Json::object();
  out.set("scenario", Json::string(r.scenario));
  out.set("checksum", Json::string(hex64(r.checksum)));
  out.set("deterministic", std::move(det));
  out.set("wall_clock", std::move(wall));
  out.set("assign_latency_us", latency_json(r.perf.assign_latency_us));
  // Admission/degradation decision latency: empty (count 0) outside the
  // overload scenarios.
  out.set("admission_latency_us", latency_json(r.perf.admission_latency_us));
  return out;
}

Json perf_report_json(const std::vector<sim::SimResult>& results, double peak_slot_calls,
                      int weeks, int threads, std::uint64_t seed) {
  Json config = Json::object();
  config.set("peak_slot_calls", Json::number(peak_slot_calls));
  config.set("weeks", Json::number(weeks));
  config.set("threads", Json::number(threads));
  config.set("seed", Json::number(static_cast<double>(seed)));

  Json scenarios = Json::array();
  for (const auto& r : results) scenarios.push_back(perf_scenario_json(r));

  Json out = Json::object();
  out.set("schema_version", Json::number(kPerfSchemaVersion));
  out.set("config", std::move(config));
  out.set("scenarios", std::move(scenarios));
  return out;
}

std::string perf_diff_text(const Json& baseline, const Json& current) {
  std::string out = "perf vs baseline (informational — wall clock is machine-dependent):\n";

  if (baseline.has("config") && current.has("config") &&
      !(baseline.at("config") == current.at("config"))) {
    out += "  NOTE: config differs from baseline (" + baseline.at("config").dump() + " vs " +
           current.at("config").dump() + ") — deltas are not comparable\n";
  }
  if (!baseline.has("scenarios") || !current.has("scenarios")) {
    out += "  malformed report: missing \"scenarios\"\n";
    return out;
  }

  const auto find_scenario = [](const Json& report, const std::string& name) -> const Json* {
    const Json& arr = report.at("scenarios");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const Json& s = arr.at(i);
      if (s.has("scenario") && s.at("scenario").as_string() == name) return &s;
    }
    return nullptr;
  };

  const Json& cur = current.at("scenarios");
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const Json& c = cur.at(i);
    const std::string name = c.has("scenario") ? c.at("scenario").as_string() : "?";
    const Json* b = find_scenario(baseline, name);
    if (b == nullptr) {
      out += "  " + name + ": not in baseline (new scenario)\n";
      continue;
    }
    std::string changed, one_sided;
    if (b->has("checksum") && c.has("checksum") && !(b->at("checksum") == c.at("checksum")))
      changed += " checksum " + b->at("checksum").as_string() + " -> " +
                 c.at("checksum").as_string();
    if (b->has("deterministic") && c.has("deterministic")) {
      const Json& b_det = b->at("deterministic");
      const Json& c_det = c.at("deterministic");
      for (const auto& [key, value] : c_det.members()) {
        if (!b_det.has(key))
          one_sided += " " + key + " (not in baseline)";
        else if (!(b_det.at(key) == value))
          changed += " " + key + " " + b_det.at(key).dump() + " -> " + value.dump();
      }
      for (const auto& [key, value] : b_det.members())
        if (!c_det.has(key)) one_sided += " " + key + " (not in current)";
    }
    if (!changed.empty())
      out += "  " + name + ": workload changed (" + changed.substr(1) +
             "), timing deltas expected\n";
    if (!one_sided.empty()) out += "  " + name + ": deterministic keys" + one_sided + "\n";
    double b_cps = 0, c_cps = 0, b_eps = 0, c_eps = 0, b_p99 = 0, c_p99 = 0;
    const bool have_cps = get_number(*b, "wall_clock", "calls_per_sec", &b_cps) &&
                          get_number(c, "wall_clock", "calls_per_sec", &c_cps);
    const bool have_eps = get_number(*b, "wall_clock", "events_per_sec", &b_eps) &&
                          get_number(c, "wall_clock", "events_per_sec", &c_eps);
    const bool have_p99 = get_number(*b, "assign_latency_us", "p99", &b_p99) &&
                          get_number(c, "assign_latency_us", "p99", &c_p99);
    out += "  " + name + ":";
    if (have_cps)
      out += " calls/sec " + format_rate(b_cps) + " -> " + format_rate(c_cps) + " " +
             format_delta(b_cps, c_cps);
    if (have_eps)
      out += "  events/sec " + format_rate(b_eps) + " -> " + format_rate(c_eps) + " " +
             format_delta(b_eps, c_eps);
    if (have_p99)
      out += "  assign p99(us) " + format_rate(b_p99) + " -> " + format_rate(c_p99) + " " +
             format_delta(b_p99, c_p99);
    if (!have_cps && !have_eps && !have_p99) out += " no comparable fields";
    out += "\n";
  }
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
