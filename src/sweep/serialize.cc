#include "sweep/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace titan::sweep {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

namespace {

Json seed_to_json(std::uint64_t seed) { return Json::string(std::to_string(seed)); }

std::uint64_t seed_from_json(const Json& j) {
  const std::string& s = j.as_string();
  if (s.empty() || s.size() > 20)
    throw std::invalid_argument("sweep json: bad seed '" + s + "'");
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9')
      throw std::invalid_argument("sweep json: bad seed '" + s + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~0ULL - digit) / 10)
      throw std::invalid_argument("sweep json: seed overflows uint64: '" + s + "'");
    v = v * 10 + digit;
  }
  return v;
}

std::uint64_t parse_hex64(const std::string& s) {
  if (s.size() != 16) throw std::invalid_argument("sweep json: bad checksum '" + s + "'");
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else throw std::invalid_argument("sweep json: bad checksum '" + s + "'");
  }
  return v;
}

Json sweep_spec_to_json(const SweepSpec& spec) {
  Json j = Json::object();
  j.set("base_seed", seed_to_json(spec.base_seed));
  j.set("num_seeds", Json::number(spec.num_seeds));
  Json scenarios = Json::array();
  for (const auto& name : spec.scenarios) scenarios.push_back(Json::string(name));
  j.set("scenarios", std::move(scenarios));
  Json threads = Json::array();
  for (const int t : spec.sim_threads) threads.push_back(Json::number(t));
  j.set("sim_threads", std::move(threads));
  j.set("peak_slot_calls", Json::number(spec.peak_slot_calls));
  j.set("training_weeks", Json::number(spec.training_weeks));
  j.set("eval_days", Json::number(spec.eval_days));
  j.set("replan_interval_slots", Json::number(spec.replan_interval_slots));
  j.set("shards", Json::number(spec.shards));
  j.set("max_reduced_configs", Json::number(spec.max_reduced_configs));
  j.set("oracle_counts", Json::boolean(spec.oracle_counts));
  return j;
}

SweepSpec sweep_spec_from_json(const Json& j) {
  SweepSpec spec;
  spec.base_seed = seed_from_json(j.at("base_seed"));
  spec.num_seeds = static_cast<int>(j.at("num_seeds").as_int());
  spec.scenarios.clear();
  for (std::size_t i = 0; i < j.at("scenarios").size(); ++i)
    spec.scenarios.push_back(j.at("scenarios").at(i).as_string());
  spec.sim_threads.clear();
  for (std::size_t i = 0; i < j.at("sim_threads").size(); ++i)
    spec.sim_threads.push_back(static_cast<int>(j.at("sim_threads").at(i).as_int()));
  spec.peak_slot_calls = j.at("peak_slot_calls").as_number();
  spec.training_weeks = static_cast<int>(j.at("training_weeks").as_int());
  spec.eval_days = static_cast<int>(j.at("eval_days").as_int());
  spec.replan_interval_slots = static_cast<int>(j.at("replan_interval_slots").as_int());
  spec.shards = static_cast<int>(j.at("shards").as_int());
  spec.max_reduced_configs = static_cast<int>(j.at("max_reduced_configs").as_int());
  spec.oracle_counts = j.at("oracle_counts").as_bool();
  return spec;
}

Json run_record_to_json(const RunRecord& run) {
  Json j = Json::object();
  j.set("scenario", Json::string(run.scenario));
  j.set("seed", seed_to_json(run.seed));
  j.set("threads", Json::number(run.threads));
  j.set("checksum", Json::string(hex64(run.checksum)));
  Json values = Json::array();
  for (const double v : run.values) values.push_back(Json::number(v));
  j.set("values", std::move(values));
  return j;
}

RunRecord run_record_from_json(const Json& j) {
  RunRecord run;
  run.scenario = j.at("scenario").as_string();
  run.seed = seed_from_json(j.at("seed"));
  run.threads = static_cast<int>(j.at("threads").as_int());
  run.checksum = parse_hex64(j.at("checksum").as_string());
  const Json& values = j.at("values");
  if (values.size() != metric_names().size())
    throw std::invalid_argument("sweep json: run value count mismatch");
  run.values.reserve(values.size());
  for (std::size_t v = 0; v < values.size(); ++v)
    run.values.push_back(values.at(v).as_number());
  return run;
}

// The baseline check reads runs by canonical slot, so a document must fill
// exactly the slots its spec names, each with that slot's scenario, seed
// and thread count.
void check_canonical_slots(const SweepResult& result) {
  const SweepSpec& spec = result.spec;
  if (spec.num_seeds < 1 || spec.sim_threads.empty())
    throw std::invalid_argument("sweep json: spec names no runs");
  const std::size_t seeds = static_cast<std::size_t>(spec.num_seeds);
  const std::size_t variants = spec.sim_threads.size();
  if (result.runs.size() != spec.scenarios.size() * seeds * variants)
    throw std::invalid_argument("sweep json: run count does not match the spec");
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const RunRecord& run = result.runs[i];
    if (run.scenario != spec.scenarios[i / (seeds * variants)] ||
        run.seed != spec.base_seed + (i / variants) % seeds ||
        run.threads != spec.sim_threads[i % variants])
      throw std::invalid_argument("sweep json: run " + std::to_string(i) + " (" +
                                  run.scenario + " seed " + std::to_string(run.seed) +
                                  ") is not in its canonical slot");
  }
}

}  // namespace

Json to_json(const SweepResult& result) {
  Json doc = Json::object();
  doc.set("schema", Json::number(kSweepSchemaVersion));
  doc.set("spec", sweep_spec_to_json(result.spec));

  Json metrics = Json::array();
  for (const auto& name : metric_names()) metrics.push_back(Json::string(name));
  doc.set("metrics", std::move(metrics));

  Json runs = Json::array();
  for (const auto& run : result.runs) runs.push_back(run_record_to_json(run));
  doc.set("runs", std::move(runs));

  Json violations = Json::array();
  for (const auto& v : result.determinism_violations) violations.push_back(Json::string(v));
  doc.set("determinism_violations", std::move(violations));
  return doc;
}

std::string to_json_text(const SweepResult& result) { return to_json(result).dump(2); }

SweepResult from_json(const Json& doc) {
  if (doc.at("schema").as_int() != kSweepSchemaVersion)
    throw std::invalid_argument("sweep json: unsupported schema version");

  const Json& metrics = doc.at("metrics");
  const auto& names = metric_names();
  if (metrics.size() != names.size())
    throw std::invalid_argument("sweep json: metric schema size mismatch");
  for (std::size_t i = 0; i < names.size(); ++i)
    if (metrics.at(i).as_string() != names[i])
      throw std::invalid_argument("sweep json: metric schema mismatch at '" +
                                  metrics.at(i).as_string() + "'");

  SweepResult result;
  result.spec = sweep_spec_from_json(doc.at("spec"));

  const Json& runs = doc.at("runs");
  for (std::size_t i = 0; i < runs.size(); ++i)
    result.runs.push_back(run_record_from_json(runs.at(i)));
  check_canonical_slots(result);

  const Json& violations = doc.at("determinism_violations");
  for (std::size_t i = 0; i < violations.size(); ++i)
    result.determinism_violations.push_back(violations.at(i).as_string());
  return result;
}

SweepResult from_json_text(const std::string& text) { return from_json(Json::parse(text)); }

}  // namespace titan::sweep
