#ifndef SERVEBENCH_BENCH_LIB_H_
#define SERVEBENCH_BENCH_LIB_H_

// The served-path benchmark's own pieces that do not touch the server:
// seeded input generation, plan descriptions, the independent exact-answer
// evaluator, order statistics and the result line. Kept apart from
// servebench.cc so the self-tests can check them on tiny inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_spec.h"
#include "storage/table.h"

namespace servebench {

/// SplitMix64: the benchmark's only random source, so inputs depend on
/// nothing but the seed (not on a standard library's distributions).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in (0, 1): never exactly 0, so logs and powers stay finite.
  double Uniform();
  double Normal();

 private:
  uint64_t state_;
};

/// Mixes (seed, a, b) into one 64-bit value (for per-client streams and
/// pinned request seeds).
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Draws ranks 0..n-1 with P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(SplitMix& rng) const;
  /// Probability of rank `r`.
  double Mass(int r) const;

 private:
  std::vector<double> cdf_;
};

/// Shape of the generated `sessions` table.
struct TableShape {
  int64_t rows = 1'000'000;
  int num_cities = 24;
  double city_zipf = 1.1;
  int num_os = 6;
  double os_zipf = 1.5;
  int num_cdns = 4;
  double cdn_zipf = 1.2;
};

/// Numeric columns of the table, in column order.
inline const std::vector<std::string>& NumericColumns() {
  static const std::vector<std::string> kColumns = {
      "session_time", "bitrate_kbps", "join_time_ms", "bytes_mb",
      "buffering_ratio"};
  return kColumns;
}

/// City name of Zipf rank `rank` (rank 0 is the most frequent) under
/// `seed`: the seed permutes which name holds which rank, so per-rank
/// frequencies, and with them every plan's selectivity, are seed-free.
std::string CityForRank(uint64_t seed, int rank, int num_cities);

/// A Conviva-style `sessions` table generated from `seed`:
///   session_time    lognormal(mu 5.0, sigma 1.0)    seconds
///   bitrate_kbps    lognormal(mu 7.6, sigma 0.45)   kbps
///   join_time_ms    Pareto(x_m 150, alpha 2.5)      ms
///   bytes_mb        Pareto(x_m 2, alpha 1.8)        MB
///   buffering_ratio U^3 for U uniform in (0, 1)     fraction
///   city / os / cdn Zipf over named values
std::shared_ptr<aqp::Table> MakeSessions(uint64_t seed,
                                         const TableShape& shape);

/// Input expression shapes of the §7 query sets.
enum class InputShape { kStar, kColumn, kColPlusCol, kColTimesLit };
/// Filter shapes: none, `col > t`, `col < t`, or `city = '...'`.
enum class FilterShape { kNone, kGreater, kLess, kCity };

/// A plan the benchmark generates and evaluates on its own. BuildQuery
/// turns it into the program's QuerySpec; ExactEvaluate answers it without
/// the program.
struct PlanDesc {
  aqp::AggregateKind kind = aqp::AggregateKind::kCount;
  double percentile = 0.5;
  InputShape input = InputShape::kStar;
  std::string col_a;
  std::string col_b;
  double literal = 1.0;
  /// Wraps the input in the benchmark's UDF (BenchUdf).
  bool udf = false;
  FilterShape filter = FilterShape::kNone;
  std::string filter_column;
  double threshold = 0.0;
  std::string city;

  /// True for the QSet-1 shapes the program answers in closed form.
  bool ClosedForm() const;
  std::string Describe() const;
};

/// The benchmark's scalar UDF: log(1 + |x|).
double BenchUdf(double x);

aqp::QuerySpec BuildQuery(const PlanDesc& plan, const std::string& table);

/// One plan's answer over a whole table, plus the range of the aggregate's
/// input over the rows that pass the filter.
struct ExactAnswer {
  double value = 0.0;
  double input_min = 0.0;
  double input_max = 0.0;
  int64_t rows = 0;
};

/// Evaluates `plan` over every row of `table` with the program's aggregate
/// definitions: sample VARIANCE/STDEV (n - 1), type-7 PERCENTILE. Returns
/// false when no row passes the filter (no answer exists).
bool ExactEvaluate(const aqp::Table& table, const PlanDesc& plan,
                   ExactAnswer* answer);

/// Type-7 (linear interpolation) quantile, q in [0, 1]; 0 for no values.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one-line JSON result the benchmark ends its output with.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Formats a double with all 17 significant digits (JSON-safe: non-finite
/// values become null).
std::string JsonNumber(double value);
/// Quotes and escapes `text` as a JSON string.
std::string JsonString(const std::string& text);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_LIB_H_
