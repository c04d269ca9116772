#pragma once
// How far process-registry counters moved since construction. kvcache
// counts its events (evictions, decode steps and edges, adopted pages,
// prompt-cache lookups/hits/publishes/reclaims) only in
// obs::Registry::global(), so a test asserts exact movements over its
// own operations. Tests in one binary run one at a time, so nothing
// else moves the counters meanwhile.

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace gpa {

class CounterDeltas {
 public:
  std::uint64_t operator()(std::string_view name) const {
    return obs::Registry::global().counter(name).value() - base_.counter(name);
  }

 private:
  obs::MetricsSnapshot base_ = obs::Registry::global().snapshot();
};

}  // namespace gpa
