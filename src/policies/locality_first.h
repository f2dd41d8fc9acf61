// Locality First baseline (§7.2 / §8.1).
//
// Oracle mode formulates the same LP as Titan-Next but minimizes total
// latency (or, in the E2E variant, total max-E2E latency) with no C4 bound,
// then draws per-call assignments from the plan weights. First-joiner mode
// ranks (DC, routing) buckets by latency from the first joiner's country
// and takes the closest bucket with compute/Internet capacity left.
#pragma once

#include "policies/policy.h"
#include "titannext/pipeline.h"

namespace titan::policies {

struct LocalityFirstOptions {
  bool oracle = true;
  bool use_max_e2e_objective = false;  // the "LF using E2E latency" variant
  titannext::PlanScope scope;
};

class LocalityFirstPolicy : public Policy {
 public:
  LocalityFirstPolicy(const PolicyContext& ctx, const LocalityFirstOptions& options)
      : ctx_(&ctx), options_(options) {}

  [[nodiscard]] std::string name() const override {
    if (!options_.oracle) return "LF-online";
    return options_.use_max_e2e_objective ? "LF-maxE2E" : "LF";
  }
  [[nodiscard]] PolicyRun run(const workload::Trace& eval_trace,
                              const workload::Trace& history, core::Rng& rng) override;

 private:
  [[nodiscard]] PolicyRun run_oracle(const workload::Trace& eval_trace, core::Rng& rng) const;
  [[nodiscard]] PolicyRun run_online(const workload::Trace& eval_trace,
                                     const workload::Trace& history, core::Rng& rng) const;

  const PolicyContext* ctx_;
  LocalityFirstOptions options_;
};

}  // namespace titan::policies
