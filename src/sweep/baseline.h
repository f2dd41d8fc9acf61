// Regression comparison of a sweep against a committed baseline.
//
// The committed file (bench/baselines/sweep_baseline.json) freezes the run
// records of a fixed sweep spec; `compare_to_baseline` diffs the metric
// distributions of a freshly computed sweep against the baseline's, each
// deterministic metric within the band its metric_table() row carries
// (sweep/sweep.h), so a controller/LP/scenario change is judged against
// distributions, not one golden point. Wall-clock rows are skipped.
#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace titan::sweep {

struct Regression {
  std::string scenario;
  std::string metric;
  std::string stat;  // "mean" or "p95"
  double baseline = 0.0;
  double current = 0.0;
  double allowed = 0.0;  // the absolute slack the row's band granted

  [[nodiscard]] std::string describe() const;
};

// Compares the mean and p95 of every (scenario, deterministic metric)
// distribution (scenario_stats of each side) within the row's band. Returns every violation, ordered by
// scenario then metric. Throws std::invalid_argument when the sweeps are
// not comparable (different spec, scenario set, or seed count) — a
// baseline from another spec must be regenerated, not silently compared.
[[nodiscard]] std::vector<Regression> compare_to_baseline(const SweepResult& current,
                                                          const SweepResult& baseline);

// Reads a committed sweep JSON. Throws std::invalid_argument when the file
// is unreadable or is not a sweep document of this binary's schema, so a
// bench can refuse a bad --baseline before it simulates anything.
[[nodiscard]] SweepResult read_baseline(const std::string& path);

// The --check step both sim benches share: compares `current` against
// `baseline` (read from `path`), prints every regression to stderr or a
// pass line to stdout, and returns the bench's exit code — 0 on pass, 1 on
// any regression, 2 when the two are not comparable.
[[nodiscard]] int check_against_baseline(const SweepResult& current,
                                         const SweepResult& baseline, const std::string& path);

}  // namespace titan::sweep
