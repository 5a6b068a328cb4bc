#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace gfi::stats {

void RunningStats::add(f64 x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const f64 delta = x - mean_;
  mean_ += delta / static_cast<f64>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const f64 na = static_cast<f64>(count_);
  const f64 nb = static_cast<f64>(other.count_);
  const f64 delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

f64 RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<f64>(count_ - 1);
}

f64 RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// Inverse standard-normal CDF (Acklam's rational approximation, relative
// error < 1.15e-9 over (0, 1)). Exact table constants for the canonical
// campaign levels are handled by the caller; this covers everything else.
f64 probit(f64 q) {
  static constexpr f64 a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr f64 b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
  static constexpr f64 c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr f64 d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  constexpr f64 p_low = 0.02425;
  if (q < p_low) {
    const f64 r = std::sqrt(-2.0 * std::log(q));
    return (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r +
            c[5]) /
           ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0);
  }
  if (q <= 1.0 - p_low) {
    const f64 r = q - 0.5;
    const f64 s = r * r;
    return (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s +
            a[5]) *
           r /
           (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s +
            1.0);
  }
  const f64 r = std::sqrt(-2.0 * std::log(1.0 - q));
  return -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r +
           c[5]) /
         ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0);
}

}  // namespace

f64 z_for_confidence(f64 confidence) {
  // Canonical campaign levels keep the historical four-decimal constants so
  // every previously published interval (journals, CSVs) stays bit-exact.
  constexpr f64 kTol = 1e-9;
  if (std::fabs(confidence - 0.99) < kTol) return 2.5758;
  if (std::fabs(confidence - 0.95) < kTol) return 1.9600;
  if (std::fabs(confidence - 0.90) < kTol) return 1.6449;
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    // An impossible confidence level used to be silently coerced to 1.96;
    // now it poisons every downstream interval instead.
    return std::numeric_limits<f64>::quiet_NaN();
  }
  // Two-sided: z = Phi^-1((1 + confidence) / 2).
  return probit(0.5 * (1.0 + confidence));
}

Interval wald_interval(std::size_t successes, std::size_t trials,
                       f64 confidence) {
  if (trials == 0) return {0.0, 1.0};
  successes = std::min(successes, trials);
  const f64 n = static_cast<f64>(trials);
  const f64 p = static_cast<f64>(successes) / n;
  const f64 z = z_for_confidence(confidence);
  const f64 half = z * std::sqrt(p * (1.0 - p) / n);
  return {std::max(0.0, p - half), std::min(1.0, p + half)};
}

Interval wilson_interval(std::size_t successes, std::size_t trials,
                         f64 confidence) {
  if (trials == 0) return {0.0, 1.0};
  successes = std::min(successes, trials);
  const f64 n = static_cast<f64>(trials);
  const f64 p = static_cast<f64>(successes) / n;
  const f64 z = z_for_confidence(confidence);
  const f64 z2 = z * z;
  const f64 denom = 1.0 + z2 / n;
  const f64 center = (p + z2 / (2.0 * n)) / denom;
  const f64 half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

std::size_t required_sample_size(u64 population, f64 margin, f64 confidence,
                                 f64 p) {
  if (population == 0) return 0;
  // p = 0 or 1 makes z^2 p (1-p) zero, the denominator below infinite, and
  // the answer a nonsensical "0 samples needed"; the planner never believes
  // a rate is exactly degenerate.
  p = std::clamp(p, kPlannerEps, 1.0 - kPlannerEps);
  const f64 big_n = static_cast<f64>(population);
  const f64 z = z_for_confidence(confidence);
  const f64 numer = big_n;
  const f64 denom =
      1.0 + margin * margin * (big_n - 1.0) / (z * z * p * (1.0 - p));
  const f64 n = numer / denom;
  return static_cast<std::size_t>(std::max(1.0, std::ceil(n)));
}

f64 percentile(std::vector<f64> values, f64 pct) {
  if (values.empty()) return std::numeric_limits<f64>::quiet_NaN();
  // pct outside [0, 100] would push `rank` past size-1 (values[hi] reads
  // past the end) or below 0 (the floor cast wraps); clamp to the sample.
  pct = std::clamp(pct, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const f64 rank = pct / 100.0 * static_cast<f64>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const f64 frac = rank - static_cast<f64>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// ------------------------------------------------- adaptive campaigns ---

bool StoppingRule::satisfied(std::size_t successes,
                             std::size_t trials) const {
  if (!enabled()) return false;
  if (trials < min_samples) return false;
  return wilson_interval(successes, trials, confidence).half_width() <=
         target_half_width;
}

std::vector<u64> apportion(const std::vector<f64>& weights, u64 total) {
  std::vector<u64> shares(weights.size(), 0);
  if (weights.empty() || total == 0) return shares;
  f64 sum = 0.0;
  for (const f64 w : weights) {
    if (w > 0.0 && std::isfinite(w)) sum += w;
  }
  if (sum <= 0.0) {
    // Degenerate input: nothing to be proportional to, spread round-robin.
    for (u64 i = 0; i < total; ++i) ++shares[i % shares.size()];
    return shares;
  }
  // Floor quotas first, then hand the leftover units to the largest
  // fractional remainders (ties toward the lowest index — stable sort on
  // a descending-remainder key keeps the order deterministic).
  u64 assigned = 0;
  std::vector<f64> remainder(weights.size(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const f64 w = (weights[i] > 0.0 && std::isfinite(weights[i]))
                      ? weights[i]
                      : 0.0;
    const f64 quota = static_cast<f64>(total) * w / sum;
    shares[i] = static_cast<u64>(std::floor(quota));
    remainder[i] = quota - std::floor(quota);
    assigned += shares[i];
  }
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t k = 0; assigned < total; ++k) {
    ++shares[order[k % order.size()]];
    ++assigned;
  }
  return shares;
}

std::vector<f64> neyman_weights(const std::vector<f64>& stratum_weights,
                                const std::vector<u64>& successes,
                                const std::vector<u64>& trials) {
  std::vector<f64> out(stratum_weights.size(), 0.0);
  for (std::size_t i = 0; i < stratum_weights.size(); ++i) {
    if (!(stratum_weights[i] > 0.0)) continue;
    const u64 x = i < successes.size() ? successes[i] : 0;
    const u64 n = i < trials.size() ? trials[i] : 0;
    const f64 p = (static_cast<f64>(std::min(x, n)) + 1.0) /
                  (static_cast<f64>(n) + 2.0);
    out[i] = stratum_weights[i] * std::sqrt(p * (1.0 - p));
  }
  return out;
}

f64 poststratified_rate(const std::vector<StratumCount>& strata) {
  f64 weight_sum = 0.0;
  f64 acc = 0.0;
  for (const StratumCount& s : strata) {
    if (s.trials == 0 || !(s.weight > 0.0)) continue;
    weight_sum += s.weight;
    acc += s.weight * static_cast<f64>(std::min(s.successes, s.trials)) /
           static_cast<f64>(s.trials);
  }
  if (weight_sum <= 0.0) return 0.0;
  return acc / weight_sum;
}

Interval poststratified_interval(const std::vector<StratumCount>& strata,
                                 f64 confidence) {
  f64 weight_sum = 0.0;
  for (const StratumCount& s : strata) {
    if (s.trials == 0 || !(s.weight > 0.0)) continue;
    weight_sum += s.weight;
  }
  if (weight_sum <= 0.0) return {0.0, 1.0};
  const f64 rate = poststratified_rate(strata);
  f64 var = 0.0;
  for (const StratumCount& s : strata) {
    if (s.trials == 0 || !(s.weight > 0.0)) continue;
    const f64 w = s.weight / weight_sum;
    const f64 n = static_cast<f64>(s.trials);
    const f64 p = (static_cast<f64>(std::min(s.successes, s.trials)) + 1.0) /
                  (n + 2.0);
    var += w * w * p * (1.0 - p) / n;
  }
  const f64 half = z_for_confidence(confidence) * std::sqrt(var);
  return {std::max(0.0, rate - half), std::min(1.0, rate + half)};
}

}  // namespace gfi::stats
