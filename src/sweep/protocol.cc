#include "sweep/protocol.h"

#include <stdexcept>

#include "sweep/serialize.h"

namespace titan::sweep {

namespace {

// Version gate. Runs BEFORE the unknown-field check: a future protocol may
// legitimately add fields, and "version 2 (this binary speaks 1)" is the
// actionable error, not "unknown field 'new_thing'".
void check_protocol(const Json& j, const char* what) {
  const long long version = j.at("protocol").as_int();
  if (version != kWorkProtocolVersion)
    throw std::invalid_argument(std::string(what) + ": protocol version " +
                                std::to_string(version) + " (this binary speaks " +
                                std::to_string(kWorkProtocolVersion) + ")");
}

void reject_unknown_keys(const Json& j, std::initializer_list<const char*> known,
                         const char* what) {
  for (const auto& [key, value] : j.members()) {
    (void)value;
    bool ok = false;
    for (const char* k : known)
      if (key == k) {
        ok = true;
        break;
      }
    if (!ok)
      throw std::invalid_argument(std::string(what) + ": unknown field '" + key + "'");
  }
}

}  // namespace

Json to_json(const WorkSpec& spec) {
  Json j = Json::object();
  j.set("protocol", Json::number(spec.protocol));
  j.set("scenario", Json::string(spec.scenario));
  j.set("seed", seed_to_json(spec.seed));
  j.set("spec", sweep_spec_to_json(spec.spec));
  return j;
}

Json to_json(const PartialResult& partial) {
  Json j = Json::object();
  j.set("protocol", Json::number(partial.protocol));
  j.set("scenario", Json::string(partial.scenario));
  j.set("seed", seed_to_json(partial.seed));
  j.set("task_seconds", Json::number(partial.task_seconds));
  Json records = Json::array();
  for (const auto& r : partial.records) records.push_back(run_record_to_json(r));
  j.set("records", std::move(records));
  Json violations = Json::array();
  for (const auto& v : partial.determinism_violations) violations.push_back(Json::string(v));
  j.set("determinism_violations", std::move(violations));
  return j;
}

std::string to_json_line(const WorkSpec& spec) { return to_json(spec).dump(-1); }

std::string to_json_line(const PartialResult& partial) { return to_json(partial).dump(-1); }

WorkSpec work_spec_from_json(const Json& j) {
  static constexpr const char* kWhat = "work spec json";
  check_protocol(j, kWhat);
  reject_unknown_keys(j, {"protocol", "scenario", "seed", "spec"}, kWhat);
  WorkSpec spec;
  spec.protocol = static_cast<int>(j.at("protocol").as_int());
  spec.scenario = j.at("scenario").as_string();
  spec.seed = seed_from_json(j.at("seed"));
  spec.spec = sweep_spec_from_json(j.at("spec"), /*strict=*/true);
  return spec;
}

WorkSpec work_spec_from_text(const std::string& text) {
  return work_spec_from_json(Json::parse(text));
}

PartialResult partial_result_from_json(const Json& j) {
  static constexpr const char* kWhat = "partial result json";
  check_protocol(j, kWhat);
  reject_unknown_keys(
      j, {"protocol", "scenario", "seed", "task_seconds", "records", "determinism_violations"},
      kWhat);
  PartialResult partial;
  partial.protocol = static_cast<int>(j.at("protocol").as_int());
  partial.scenario = j.at("scenario").as_string();
  partial.seed = seed_from_json(j.at("seed"));
  partial.task_seconds = j.at("task_seconds").as_number();
  const Json& records = j.at("records");
  partial.records.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    partial.records.push_back(run_record_from_json(records.at(i), /*strict=*/true));
  const Json& violations = j.at("determinism_violations");
  for (std::size_t i = 0; i < violations.size(); ++i)
    partial.determinism_violations.push_back(violations.at(i).as_string());
  return partial;
}

PartialResult partial_result_from_text(const std::string& text) {
  return partial_result_from_json(Json::parse(text));
}

PartialResult run_work_spec(const WorkSpec& spec) {
  SweepTaskResult task = run_sweep_task(spec.spec, spec.scenario, spec.seed);
  PartialResult partial;
  partial.scenario = spec.scenario;
  partial.seed = spec.seed;
  partial.task_seconds = task.seconds;
  partial.records = std::move(task.records);
  partial.determinism_violations = std::move(task.determinism_violations);
  return partial;
}

}  // namespace titan::sweep
