// Background load model for hosts.
//
// Real metacomputing hosts carry load from users outside Legion's
// control; schedulers see it through the "load average" attribute.  We
// model background load as a mean-reverting (Ornstein-Uhlenbeck-style)
// random walk sampled at the host's reassessment period, which produces
// plausibly autocorrelated load traces and is the signal the
// Network-Weather-Service-style forecaster (function injection demo) is
// pointed at.
#pragma once

#include <algorithm>

#include "base/rng.h"

namespace legion {

struct LoadModelParams {
  double mean = 0.3;          // long-run background load (per-CPU)
  double reversion = 0.2;     // pull toward the mean per step
  double volatility = 0.08;   // step noise
  double initial = 0.3;
};

class LoadModel {
 public:
  LoadModel(LoadModelParams params, Rng rng)
      : params_(params), rng_(rng), load_(params.initial) {}

  double current() const { return load_; }

  // Advances one reassessment step and returns the new background load.
  double Step() {
    load_ += params_.reversion * (params_.mean - load_) +
             rng_.Normal(0.0, params_.volatility);
    load_ = std::clamp(load_, kFloor, kCeiling);
    return load_;
  }

  // Forces a load spike (used by the migration experiments to model an
  // interactive user arriving at the workstation).
  void Spike(double level) { load_ = std::clamp(level, kFloor, kCeiling); }

 private:
  // Load never leaves [kFloor, kCeiling]; the ceiling is runaway
  // protection.
  static constexpr double kFloor = 0.0;
  static constexpr double kCeiling = 4.0;

  LoadModelParams params_;
  Rng rng_;
  double load_;
};

}  // namespace legion
