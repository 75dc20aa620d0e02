// Descriptive and inferential statistics used by the evaluation harness.
//
// Implements exactly what the paper's evaluation needs: medians/quantiles
// and boxplot summaries for the Fig. 7 MRE distributions, and one-way ANOVA
// (F statistic + p value) for the "ANOVA runs" of Section 4.1.4. Nothing is
// approximated by sampling: quantiles use linear interpolation (type-7, the
// numpy default), and the ANOVA p value integrates the F distribution via
// the regularized incomplete beta function.
#pragma once

#include <cstddef>
#include <vector>

namespace xmem::util {

double mean(const std::vector<double>& xs);
/// Sample variance (divides by n-1). Returns 0 for n < 2.
double variance(const std::vector<double>& xs);

/// Type-7 (linear interpolation) quantile; q in [0,1]. Empty input -> 0.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);

/// Five-number boxplot summary matching matplotlib's default whisker rule
/// (whiskers at the furthest data point within 1.5 * IQR of the box).
struct BoxplotSummary {
  double minimum = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double maximum = 0;
  double whisker_low = 0;
  double whisker_high = 0;
  std::size_t n = 0;
  std::size_t outliers = 0;  ///< points outside the whiskers
};
BoxplotSummary boxplot_summary(std::vector<double> xs);

/// One-way ANOVA across k groups.
struct AnovaResult {
  double f_statistic = 0;
  double p_value = 1.0;
  double df_between = 0;
  double df_within = 0;
  double ss_between = 0;
  double ss_within = 0;
};
AnovaResult one_way_anova(const std::vector<std::vector<double>>& groups);

/// Regularized incomplete beta function I_x(a, b); continued-fraction
/// evaluation (Lentz). Exposed for testing.
double regularized_incomplete_beta(double a, double b, double x);

/// Survival function of the F distribution: P[F(d1, d2) > f].
double f_distribution_sf(double f, double d1, double d2);

/// Pearson correlation of two equal-length vectors; 0 when undefined.
double pearson_correlation(const std::vector<double>& xs,
                           const std::vector<double>& ys);

}  // namespace xmem::util
