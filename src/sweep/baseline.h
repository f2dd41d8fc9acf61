// Regression comparison of sweep aggregates against a committed baseline.
//
// The committed file (bench/baselines/sweep_baseline.json) freezes the
// metric distributions of a fixed sweep spec; `compare_to_baseline` diffs
// a freshly computed sweep against it, each deterministic metric within
// the band its metric_table() row carries (sweep/sweep.h), so a
// controller/LP/scenario change is judged against distributions, not one
// golden point. Wall-clock rows are skipped.
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
// aggregate within the row's band. Returns every violation, ordered by
// scenario then metric. Throws std::invalid_argument when the sweeps are
// not comparable (different spec, scenario set, or seed count) — a
// baseline from another spec must be regenerated, not silently compared.
[[nodiscard]] std::vector<Regression> compare_to_baseline(const SweepResult& current,
                                                          const SweepResult& baseline);

}  // namespace titan::sweep
