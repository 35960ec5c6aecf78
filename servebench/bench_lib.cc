#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "expr/expr.h"
#include "storage/column.h"

namespace servebench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
}

double SplitMix::Normal() {
  const double u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  SplitMix mix(seed ^ (a * 0xd1b54a32d192ed03ULL) ^
               (b * 0x8cb92ba72f3d8dd7ULL));
  mix.Next();
  return mix.Next();
}

Zipf::Zipf(int n, double s) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Draw(SplitMix& rng) const {
  const double u = rng.Uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int>(it - cdf_.begin());
}

double Zipf::Mass(int r) const {
  const size_t i = static_cast<size_t>(r);
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

namespace {

std::vector<int> Permutation(uint64_t seed, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  SplitMix rng(seed);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.Next() % static_cast<uint64_t>(i + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

std::string Named(const char* prefix, int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s_%02d", prefix, index);
  return buf;
}

}  // namespace

std::string CityForRank(uint64_t seed, int rank, int num_cities) {
  const std::vector<int> order = Permutation(Mix(seed, 0xc17), num_cities);
  return Named("city", order[static_cast<size_t>(rank)]);
}

std::shared_ptr<aqp::Table> MakeSessions(uint64_t seed,
                                         const TableShape& shape) {
  std::vector<aqp::Column> numeric;
  for (const std::string& name : NumericColumns()) {
    numeric.push_back(aqp::Column::MakeDouble(name));
    numeric.back().Reserve(shape.rows);
  }
  aqp::Column city = aqp::Column::MakeString("city");
  aqp::Column os = aqp::Column::MakeString("os");
  aqp::Column cdn = aqp::Column::MakeString("cdn");
  // Dictionary codes follow first appearance; seed the dictionaries in rank
  // order of a seed-drawn permutation so names and codes carry no rank.
  std::vector<std::string> city_of_rank;
  for (int r = 0; r < shape.num_cities; ++r) {
    city_of_rank.push_back(CityForRank(seed, r, shape.num_cities));
  }
  const Zipf city_zipf(shape.num_cities, shape.city_zipf);
  const Zipf os_zipf(shape.num_os, shape.os_zipf);
  const Zipf cdn_zipf(shape.num_cdns, shape.cdn_zipf);

  SplitMix rng(Mix(seed, 0x7ab1e));
  for (int64_t i = 0; i < shape.rows; ++i) {
    numeric[0].AppendDouble(std::exp(5.0 + 1.0 * rng.Normal()));
    numeric[1].AppendDouble(std::exp(7.6 + 0.45 * rng.Normal()));
    numeric[2].AppendDouble(150.0 / std::pow(rng.Uniform(), 1.0 / 2.5));
    numeric[3].AppendDouble(2.0 / std::pow(rng.Uniform(), 1.0 / 1.8));
    const double u = rng.Uniform();
    numeric[4].AppendDouble(u * u * u);
    city.AppendString(city_of_rank[static_cast<size_t>(city_zipf.Draw(rng))]);
    os.AppendString(Named("os", os_zipf.Draw(rng)));
    cdn.AppendString(Named("cdn", cdn_zipf.Draw(rng)));
  }
  auto table = std::make_shared<aqp::Table>("sessions");
  for (aqp::Column& column : numeric) {
    if (!table->AddColumn(std::move(column)).ok()) return nullptr;
  }
  if (!table->AddColumn(std::move(city)).ok() ||
      !table->AddColumn(std::move(os)).ok() ||
      !table->AddColumn(std::move(cdn)).ok()) {
    return nullptr;
  }
  return table;
}

bool PlanDesc::ClosedForm() const {
  switch (kind) {
    case aqp::AggregateKind::kCount:
    case aqp::AggregateKind::kSum:
    case aqp::AggregateKind::kAvg:
    case aqp::AggregateKind::kVariance:
    case aqp::AggregateKind::kStddev:
      return !udf;
    default:
      return false;
  }
}

double BenchUdf(double x) { return std::log1p(std::fabs(x)); }

namespace {

aqp::ExprPtr BuildInput(const PlanDesc& plan) {
  aqp::ExprPtr input;
  switch (plan.input) {
    case InputShape::kStar:
      return nullptr;
    case InputShape::kColumn:
      input = aqp::ColumnRef(plan.col_a);
      break;
    case InputShape::kColPlusCol:
      input = aqp::Add(aqp::ColumnRef(plan.col_a), aqp::ColumnRef(plan.col_b));
      break;
    case InputShape::kColTimesLit:
      input = aqp::Mul(aqp::ColumnRef(plan.col_a), aqp::Literal(plan.literal));
      break;
  }
  if (plan.udf) {
    input = aqp::Udf(
        "bench_log1p_abs",
        [](const std::vector<double>& args) { return BenchUdf(args[0]); },
        {input});
  }
  return input;
}

std::string ShapeText(const PlanDesc& plan) {
  std::string text;
  switch (plan.input) {
    case InputShape::kStar:
      return "*";
    case InputShape::kColumn:
      text = plan.col_a;
      break;
    case InputShape::kColPlusCol:
      text = plan.col_a + " + " + plan.col_b;
      break;
    case InputShape::kColTimesLit: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " * %g", plan.literal);
      text = plan.col_a + buf;
      break;
    }
  }
  return plan.udf ? "bench_log1p_abs(" + text + ")" : text;
}

}  // namespace

aqp::QuerySpec BuildQuery(const PlanDesc& plan, const std::string& table) {
  aqp::QuerySpec query;
  query.id = plan.Describe();
  query.table = table;
  query.aggregate.kind = plan.kind;
  query.aggregate.percentile = plan.percentile;
  query.aggregate.input = BuildInput(plan);
  switch (plan.filter) {
    case FilterShape::kNone:
      break;
    case FilterShape::kGreater:
      query.filter = aqp::Gt(aqp::ColumnRef(plan.filter_column),
                             aqp::Literal(plan.threshold));
      break;
    case FilterShape::kLess:
      query.filter = aqp::Lt(aqp::ColumnRef(plan.filter_column),
                             aqp::Literal(plan.threshold));
      break;
    case FilterShape::kCity:
      query.filter = aqp::StringEquals(aqp::ColumnRef("city"), plan.city);
      break;
  }
  return query;
}

std::string PlanDesc::Describe() const {
  std::string text = aqp::AggregateKindName(kind);
  if (kind == aqp::AggregateKind::kPercentile) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%g]", percentile);
    text += buf;
  }
  text += '(';
  text += ShapeText(*this);
  text += ')';
  char buf[96];
  switch (filter) {
    case FilterShape::kNone:
      break;
    case FilterShape::kGreater:
      std::snprintf(buf, sizeof(buf), " WHERE %s > %.6g", filter_column.c_str(),
                    threshold);
      text += buf;
      break;
    case FilterShape::kLess:
      std::snprintf(buf, sizeof(buf), " WHERE %s < %.6g", filter_column.c_str(),
                    threshold);
      text += buf;
      break;
    case FilterShape::kCity:
      text += " WHERE city = '" + city + "'";
      break;
  }
  return text;
}

bool ExactEvaluate(const aqp::Table& table, const PlanDesc& plan,
                   ExactAnswer* answer) {
  auto column = [&table](const std::string& name) -> const aqp::Column* {
    auto found = table.ColumnByName(name);
    return found.ok() ? *found : nullptr;
  };
  const aqp::Column* a = plan.input == InputShape::kStar ? nullptr
                                                           : column(plan.col_a);
  const aqp::Column* b =
      plan.input == InputShape::kColPlusCol ? column(plan.col_b) : nullptr;
  const aqp::Column* f = nullptr;
  int32_t city_code = -1;
  if (plan.filter == FilterShape::kGreater || plan.filter == FilterShape::kLess) {
    f = column(plan.filter_column);
    if (f == nullptr) return false;
  } else if (plan.filter == FilterShape::kCity) {
    f = column("city");
    if (f == nullptr) return false;
    city_code = f->FindCode(plan.city);
  }
  if ((plan.input != InputShape::kStar && a == nullptr) ||
      (plan.input == InputShape::kColPlusCol && b == nullptr)) {
    return false;
  }

  // Filter first, then gather inputs for the passing rows: two tight loops
  // instead of one branchy one.
  const int64_t n = table.num_rows();
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(n));
  if (plan.filter == FilterShape::kNone) {
    for (int64_t i = 0; i < n; ++i) rows.push_back(i);
  } else if (plan.filter == FilterShape::kCity) {
    const int32_t* codes = f->codes().data();
    for (int64_t i = 0; i < n; ++i) {
      if (city_code >= 0 && codes[i] == city_code) rows.push_back(i);
    }
  } else {
    const double* x = f->doubles().data();
    const bool greater = plan.filter == FilterShape::kGreater;
    for (int64_t i = 0; i < n; ++i) {
      if (greater ? x[i] > plan.threshold : x[i] < plan.threshold) rows.push_back(i);
    }
  }
  const int64_t passing = static_cast<int64_t>(rows.size());
  std::vector<double> values;
  if (a != nullptr) {
    values.resize(rows.size());
    const double* av = a->doubles().data();
    const double* bv = b != nullptr ? b->doubles().data() : nullptr;
    for (size_t j = 0; j < rows.size(); ++j) {
      double v = av[rows[j]];
      if (plan.input == InputShape::kColPlusCol) v = v + bv[rows[j]];
      if (plan.input == InputShape::kColTimesLit) v = v * plan.literal;
      values[j] = plan.udf ? BenchUdf(v) : v;
    }
  }
  if (passing == 0) return false;
  answer->rows = passing;
  if (values.empty()) {
    answer->input_min = answer->input_max = 0.0;
  } else {
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    answer->input_min = *lo;
    answer->input_max = *hi;
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  const double count = static_cast<double>(values.size());
  switch (plan.kind) {
    case aqp::AggregateKind::kCount:
      answer->value = static_cast<double>(passing);
      return true;
    case aqp::AggregateKind::kSum:
      answer->value = sum;
      return true;
    case aqp::AggregateKind::kAvg:
      answer->value = sum / count;
      return true;
    case aqp::AggregateKind::kVariance:
    case aqp::AggregateKind::kStddev: {
      if (values.size() < 2) return false;
      const double mean = sum / count;
      double m2 = 0.0;
      for (double v : values) m2 += (v - mean) * (v - mean);
      const double variance = m2 / (count - 1.0);
      answer->value = plan.kind == aqp::AggregateKind::kVariance
                          ? variance
                          : std::sqrt(variance);
      return true;
    }
    case aqp::AggregateKind::kMin:
      answer->value = answer->input_min;
      return true;
    case aqp::AggregateKind::kMax:
      answer->value = answer->input_max;
      return true;
    case aqp::AggregateKind::kPercentile:
      answer->value = Percentile(std::move(values), plan.percentile);
      return true;
  }
  return false;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  if (lo + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return line + "}}";
}

}  // namespace servebench
