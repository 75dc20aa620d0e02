#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xmem::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum_sq = 0.0;
  for (double x : xs) sum_sq += (x - m) * (x - m);
  return sum_sq / static_cast<double>(xs.size() - 1);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

BoxplotSummary boxplot_summary(std::vector<double> xs) {
  BoxplotSummary s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.n = xs.size();
  s.minimum = xs.front();
  s.maximum = xs.back();
  s.q1 = quantile(xs, 0.25);
  s.median = quantile(xs, 0.5);
  s.q3 = quantile(xs, 0.75);
  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  s.whisker_low = s.maximum;
  s.whisker_high = s.minimum;
  for (double x : xs) {
    if (x >= lo_fence) {
      s.whisker_low = x;
      break;
    }
  }
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    if (*it <= hi_fence) {
      s.whisker_high = *it;
      break;
    }
  }
  for (double x : xs) {
    if (x < lo_fence || x > hi_fence) ++s.outliers;
  }
  return s;
}

namespace {

// Continued fraction for the incomplete beta function (Numerical Recipes
// style modified Lentz algorithm).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3.0e-14;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double result = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double dm = static_cast<double>(m);
    double aa = dm * (b - dm) * x / ((qam + 2.0 * dm) * (a + 2.0 * dm));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    result *= d * c;
    aa = -(a + dm) * (qab + dm) * x / ((a + 2.0 * dm) * (qap + 2.0 * dm));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    result *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return result;
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_beta = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_beta);
  // Use the symmetry relation to stay in the rapidly converging region.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double f_distribution_sf(double f, double d1, double d2) {
  if (f <= 0.0) return 1.0;
  if (d1 <= 0.0 || d2 <= 0.0) return 1.0;
  const double x = d2 / (d2 + d1 * f);
  return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x);
}

AnovaResult one_way_anova(const std::vector<std::vector<double>>& groups) {
  AnovaResult r;
  std::size_t total_n = 0;
  double grand_sum = 0.0;
  std::size_t k = 0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    ++k;
    total_n += g.size();
    for (double x : g) grand_sum += x;
  }
  if (k < 2 || total_n <= k) return r;
  const double grand_mean = grand_sum / static_cast<double>(total_n);

  double ss_between = 0.0;
  double ss_within = 0.0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    const double gm = mean(g);
    ss_between += static_cast<double>(g.size()) * (gm - grand_mean) * (gm - grand_mean);
    for (double x : g) ss_within += (x - gm) * (x - gm);
  }
  r.ss_between = ss_between;
  r.ss_within = ss_within;
  r.df_between = static_cast<double>(k - 1);
  r.df_within = static_cast<double>(total_n - k);
  if (ss_within <= std::numeric_limits<double>::min()) {
    r.f_statistic = ss_between > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    r.p_value = ss_between > 0 ? 0.0 : 1.0;
    return r;
  }
  const double ms_between = ss_between / r.df_between;
  const double ms_within = ss_within / r.df_within;
  r.f_statistic = ms_between / ms_within;
  r.p_value = f_distribution_sf(r.f_statistic, r.df_between, r.df_within);
  return r;
}

double pearson_correlation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace xmem::util
