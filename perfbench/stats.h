#pragma once
// Statistics the benchmark reports: medians, tail percentiles that the
// sample can support, and the open-loop timing rules (latency counted
// from each request's due time, and how late the generator ran).
// Header-only and free of library dependencies so stats_test.cc can
// pin every rule on hand-built samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1] (the "linear" method of
/// numpy and of Python's statistics.quantiles(method="inclusive")).
/// Returns 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest of the standard tail levels (0.999, 0.99, 0.95, 0.9,
/// 0.75, 0.5) that leaves at least `min_beyond` samples above it in a
/// sample of `n`; 0.5 when none does. A tail figure is only reported
/// at a level the sample can support.
inline double supported_tail_level(std::size_t n,
                                   std::size_t min_beyond = 10) {
  for (double level : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    const double beyond = static_cast<double>(n) * (1.0 - level);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return level;
  }
  return 0.5;
}

inline double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Geometric mean of positive values (0 when empty or any value <= 0).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) {
    if (v <= 0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Splits samples, in time order, into max(1, n / per_window) windows
/// of consecutive samples; the remainder joins the last window.
inline std::vector<std::vector<double>> consecutive_windows(
    const std::vector<double>& samples, std::size_t per_window) {
  const std::size_t count = std::max<std::size_t>(1, samples.size() / per_window);
  std::vector<std::vector<double>> windows(count);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    windows[std::min(i / per_window, count - 1)].push_back(samples[i]);
  }
  return windows;
}

/// Median over windows of each window's q-quantile. A burst of host
/// noise that stays inside one window moves one window's figure, not
/// the result.
inline double median_of_window_quantiles(
    const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows) per_window.push_back(quantile(w, q));
  return median(per_window);
}

/// One open-loop request, in seconds from the start of its phase: when
/// the schedule said to send it, when the generator actually sent it,
/// and when its answer arrived.
struct OpenLoopTiming {
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;
};

/// Latency as the client experiences it: from the due time, so a
/// generator stall (or a server that blocks submit) is charged to every
/// request it delayed instead of vanishing from the sample.
inline double due_latency_ms(const OpenLoopTiming& t) {
  return (t.done_s - t.due_s) * 1e3;
}

/// How late the generator sent this request (never negative).
inline double generator_lag_ms(const OpenLoopTiming& t) {
  return std::max(0.0, t.sent_s - t.due_s) * 1e3;
}

inline double max_generator_lag_ms(const std::vector<OpenLoopTiming>& ts) {
  double worst = 0;
  for (const OpenLoopTiming& t : ts) worst = std::max(worst, generator_lag_ms(t));
  return worst;
}

}  // namespace perfbench
