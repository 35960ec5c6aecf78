// Self-tests for the benchmark's own code: order statistics, the result
// line, and the exact-answer evaluator against values computed by hand on a
// six-row table. Exits 0 when every check holds.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_lib.h"
#include "storage/column.h"
#include "storage/table.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  const bool ok = std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s: got %.17g, want %.17g\n", what.c_str(), got,
                 want);
  }
}

void TestOrderStatistics() {
  ExpectNear(Percentile({}, 0.5), 0.0, "percentile of nothing");
  ExpectNear(Percentile({7.0}, 0.95), 7.0, "percentile of one value");
  ExpectNear(Median({3.0, 1.0, 2.0}), 2.0, "odd median");
  ExpectNear(Median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  // Type 7 on 1..5: position q * 4.
  ExpectNear(Percentile({5, 4, 3, 2, 1}, 0.95), 4.8, "p95 of 1..5");
  ExpectNear(Percentile({5, 4, 3, 2, 1}, 0.0), 1.0, "p0 of 1..5");
  ExpectNear(Percentile({5, 4, 3, 2, 1}, 1.0), 5.0, "p100 of 1..5");
  ExpectNear(Percentile({10, 20}, 0.25), 12.5, "interpolated p25");
  ExpectNear(Mean({1.0, 2.0, 6.0}), 3.0, "mean");
}

void TestResultLine() {
  Expect(ResultLine(true, 1000, 0,
                    {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}}) ==
             "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
             "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line layout");
  Expect(ResultLine(false, 3, 1, {}) ==
             "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}",
         "result line without metrics");
  Expect(JsonNumber(0.1) == "0.10000000000000001", "all 17 digits");
  Expect(JsonNumber(NAN) == "null", "non-finite number");
  Expect(JsonString("a\"b\\c") == "\"a\\\"b\\\\c\"", "string escaping");
}

// x: 1 2 3 4 5 10, y: 6 5 4 3 2 1, city: a b a b a c.
std::shared_ptr<aqp::Table> TinyTable() {
  aqp::Column x = aqp::Column::MakeDouble("x");
  aqp::Column y = aqp::Column::MakeDouble("y");
  aqp::Column city = aqp::Column::MakeString("city");
  const double xs[] = {1, 2, 3, 4, 5, 10};
  const double ys[] = {6, 5, 4, 3, 2, 1};
  const char* cities[] = {"a", "b", "a", "b", "a", "c"};
  for (int i = 0; i < 6; ++i) {
    x.AppendDouble(xs[i]);
    y.AppendDouble(ys[i]);
    city.AppendString(cities[i]);
  }
  auto table = std::make_shared<aqp::Table>("tiny");
  (void)table->AddColumn(std::move(x)).ok();
  (void)table->AddColumn(std::move(y)).ok();
  (void)table->AddColumn(std::move(city)).ok();
  return table;
}

PlanDesc Plan(aqp::AggregateKind kind, InputShape input, FilterShape filter) {
  PlanDesc plan;
  plan.kind = kind;
  plan.input = input;
  plan.col_a = "x";
  plan.col_b = "y";
  plan.literal = 2.0;
  plan.filter = filter;
  plan.filter_column = "x";
  plan.threshold = 2.5;
  plan.city = "a";
  return plan;
}

double Answer(const aqp::Table& table, const PlanDesc& plan) {
  ExactAnswer answer;
  if (!ExactEvaluate(table, plan, &answer)) {
    Expect(false, "no answer for " + plan.Describe());
    return NAN;
  }
  return answer.value;
}

void TestExactEvaluator() {
  using K = aqp::AggregateKind;
  std::shared_ptr<aqp::Table> table = TinyTable();
  const aqp::Table& t = *table;
  // No filter.
  ExpectNear(Answer(t, Plan(K::kCount, InputShape::kStar, FilterShape::kNone)), 6,
             "COUNT(*)");
  ExpectNear(Answer(t, Plan(K::kSum, InputShape::kColumn, FilterShape::kNone)), 25,
             "SUM(x)");
  ExpectNear(Answer(t, Plan(K::kAvg, InputShape::kColPlusCol, FilterShape::kNone)),
             46.0 / 6.0, "AVG(x + y)");
  ExpectNear(Answer(t, Plan(K::kSum, InputShape::kColTimesLit, FilterShape::kNone)),
             50, "SUM(x * 2)");
  // x > 2.5 keeps x = 3 4 5 10 (mean 5.5, squared deviations 6.25 2.25 0.25
  // 20.25 -> 29 / 3).
  ExpectNear(Answer(t, Plan(K::kCount, InputShape::kStar, FilterShape::kGreater)), 4,
             "COUNT(*) WHERE x > 2.5");
  ExpectNear(Answer(t, Plan(K::kVariance, InputShape::kColumn, FilterShape::kGreater)),
             29.0 / 3.0, "VARIANCE(x) WHERE x > 2.5");
  ExpectNear(Answer(t, Plan(K::kStddev, InputShape::kColumn, FilterShape::kGreater)),
             std::sqrt(29.0 / 3.0), "STDEV(x) WHERE x > 2.5");
  ExpectNear(Answer(t, Plan(K::kMin, InputShape::kColumn, FilterShape::kGreater)), 3,
             "MIN(x) WHERE x > 2.5");
  // x < 2.5 keeps x = 1 2.
  ExpectNear(Answer(t, Plan(K::kMax, InputShape::kColPlusCol, FilterShape::kLess)), 7,
             "MAX(x + y) WHERE x < 2.5");
  // city = 'a' keeps x = 1 3 5, y = 6 4 2.
  ExpectNear(Answer(t, Plan(K::kSum, InputShape::kColPlusCol, FilterShape::kCity)), 21,
             "SUM(x + y) WHERE city = 'a'");
  ExpectNear(Answer(t, Plan(K::kMax, InputShape::kColumn, FilterShape::kCity)), 5,
             "MAX(x) WHERE city = 'a'");
  PlanDesc p90 = Plan(K::kPercentile, InputShape::kColumn, FilterShape::kNone);
  p90.percentile = 0.9;  // 1 2 3 4 5 10: position 4.5 -> 5 + 0.5 * 5.
  ExpectNear(Answer(t, p90), 7.5, "PERCENTILE[0.9](x)");
  PlanDesc p50 = Plan(K::kPercentile, InputShape::kColTimesLit, FilterShape::kCity);
  p50.percentile = 0.5;  // 2 6 10.
  ExpectNear(Answer(t, p50), 6, "PERCENTILE[0.5](x * 2) WHERE city = 'a'");
  PlanDesc udf = Plan(K::kAvg, InputShape::kColumn, FilterShape::kCity);
  udf.udf = true;
  ExpectNear(Answer(t, udf), (std::log(2.0) + std::log(4.0) + std::log(6.0)) / 3.0,
             "AVG(udf(x)) WHERE city = 'a'");
  ExactAnswer range;
  Expect(ExactEvaluate(t, Plan(K::kAvg, InputShape::kColumn, FilterShape::kGreater),
                       &range) &&
             range.input_min == 3 && range.input_max == 10 && range.rows == 4,
         "input range of x WHERE x > 2.5");
  PlanDesc none = Plan(K::kAvg, InputShape::kColumn, FilterShape::kCity);
  none.city = "zzz";
  Expect(!ExactEvaluate(t, none, &range), "empty filter has no answer");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestOrderStatistics();
  servebench::TestResultLine();
  servebench::TestExactEvaluator();
  if (servebench::failures == 0) std::fprintf(stderr, "servebench self-tests: OK\n");
  return servebench::failures == 0 ? 0 : 1;
}
