// Closed-loop served-path benchmark: drives AqpServer::Execute from a fixed
// set of client threads over seeded QSet-1 / QSet-2 / repeat-mix plans,
// checks every answer against exact answers computed independently, and
// ends its output with one JSON result line. See README.md for the
// workloads, metrics and the layer-to-end-to-end map.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--clients <n>] [--pool <n>] [--out <dir>]
//
// Exit codes: 0 when every correctness check passed (timings never set the
// exit code), 1 when a check failed, 2 on bad arguments or set-up failure.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "core/engine.h"
#include "diagnostics/diagnostic.h"
#include "estimation/bootstrap.h"
#include "estimation/closed_form.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "plan/fingerprint.h"
#include "sampling/poisson_resample.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "util/random.h"

namespace servebench {
namespace {

using aqp::AggregateKind;

// Worker threads for the benchmark's own exact-answer evaluation.
constexpr int kExactWorkers = 4;
constexpr int64_t kSampleRows = 100'000;
constexpr int64_t kStratumCap = 20'000;
constexpr const char* kTable = "sessions";
// Check (c): a diagnostic-accepted answer must lie within this many of its
// own half-widths of the exact answer. A 95% CLT half-width is 1.96 sigma,
// so 6 half-widths is ~11.8 sigma: a correct program misses it with
// negligible probability.
constexpr double kAcceptedErrorMultiple = 6.0;
// The warm-up runs at least this long, so start-up transients (first-touch
// page faults, cold caches, pool wake-up) stay out of the timed phase.
constexpr double kWarmupSeconds = 2.0;
// Distinct requests replayed one at a time after the timed phase (checks e
// and f).
constexpr int kReplays = 12;
// Zipf skew of repeat_mix request draws over its plan pool.
constexpr double kRepeatZipf = 0.5;
constexpr int kRepeatPool = 800;
// One repeat_mix pool plan in kRepeatQSet2Every is a QSet-2 plan.
constexpr int kRepeatQSet2Every = 10;
// Length of the repeat_mix schedule: more than a run at 350 requests/s gets
// through in 40 s, so a run plays one stretch of it without wrapping.
constexpr int kRepeatListLength = 16000;
// repeat_mix warm-up, in requests of all clients together: over twice the
// result cache's default capacity of 256 plans, so the cache is full and its
// hit share has settled before the timed phase.
constexpr int kRepeatWarmup = 600;
// Engine Chrome traces embedded in a traced run's trace file (one per plan).
constexpr size_t kMaxQueryTraces = 64;
// Distinct repeat_mix plans the traced run times layer by layer.
constexpr int kRepeatLayerPlans = 25;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadSpec {
  const char* name;
  /// Engine pool width, fixed so that the work per request does not depend
  /// on the machine (the default follows hardware_concurrency, and the
  /// admission slots, one per worker, with it).
  int pool;
  /// Client threads before capping at nproc and the admission slots.
  int clients;
  /// Result cache + shared scans on (repeat_mix only).
  bool sharing;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"qset1_closed_form", 4, 4, false},
    {"qset2_bootstrap", 2, 2, false},
    {"repeat_mix", 4, 4, true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int clients = 0;
  int pool = 0;
  std::string out_dir = ".bench_build/servebench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--clients") {
      args->clients = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->clients < 1) return false;
    } else if (flag == "--pool") {
      args->pool = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->pool < 1 || args->pool > 64) return false;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

// ---------------------------------------------------------------------------
// Plans

/// Quantiles of the generated columns, so every threshold keeps a fixed
/// share of rows whatever the seed.
class Thresholds {
 public:
  explicit Thresholds(const aqp::Table& table) : table_(table) {}
  double At(const std::string& column, double q) {
    std::vector<double>& sorted = sorted_[column];
    if (sorted.empty()) {
      sorted = (*table_.ColumnByName(column))->doubles();
      std::sort(sorted.begin(), sorted.end());
    }
    return sorted[static_cast<size_t>(q * static_cast<double>(sorted.size() - 1))];
  }

 private:
  const aqp::Table& table_;
  std::map<std::string, std::vector<double>> sorted_;
};

PlanDesc Threshold(PlanDesc plan, FilterShape shape, const std::string& column,
                   double q, Thresholds& thresholds) {
  plan.filter = shape;
  plan.filter_column = column;
  plan.threshold = thresholds.At(column, q);
  return plan;
}

PlanDesc City(PlanDesc plan, uint64_t seed, int rank, const TableShape& shape) {
  plan.filter = FilterShape::kCity;
  plan.city = CityForRank(seed, rank, shape.num_cities);
  return plan;
}

PlanDesc Input(AggregateKind kind, InputShape input, const std::string& a,
               const std::string& b = "", double literal = 1.0,
               bool udf = false) {
  PlanDesc plan;
  plan.kind = kind;
  plan.input = input;
  plan.col_a = a;
  plan.col_b = b;
  plan.literal = literal;
  plan.udf = udf;
  return plan;
}

/// QSet-1 template `index` (0..19): COUNT, SUM, AVG, VARIANCE, STDEV, four
/// shapes each. `shift` in [0, 1) moves thresholds, literals and city ranks
/// so repeat_mix can derive distinct plans of the same shape.
PlanDesc QSet1Plan(int index, double shift, uint64_t seed,
                   const TableShape& shape, Thresholds& thresholds) {
  static const AggregateKind kKinds[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg,
      AggregateKind::kVariance, AggregateKind::kStddev};
  const AggregateKind kind = kKinds[index / 4];
  const bool count = kind == AggregateKind::kCount;
  const int rank_shift = static_cast<int>(shift * 8.0);
  switch (index % 4) {
    case 0:
      return Threshold(
          count ? Input(kind, InputShape::kStar, "")
                : Input(kind, InputShape::kColumn, "session_time"),
          FilterShape::kGreater, "bitrate_kbps", 0.5 + 0.3 * shift, thresholds);
    case 1:
      return City(count ? Input(kind, InputShape::kStar, "")
                        : Input(kind, InputShape::kColPlusCol, "session_time",
                                "join_time_ms"),
                  seed, 2 + rank_shift, shape);
    case 2:
      return Threshold(
          count ? Input(kind, InputShape::kStar, "")
                : Input(kind, InputShape::kColTimesLit, "bitrate_kbps", "",
                        0.001 * (1.0 + shift)),
          FilterShape::kLess, "join_time_ms", 0.8 - 0.3 * shift, thresholds);
    default:
      return Threshold(
          count ? Input(kind, InputShape::kStar, "")
                : Input(kind, InputShape::kColumn, "buffering_ratio"),
          FilterShape::kGreater, "session_time", 0.25 + 0.3 * shift,
          thresholds);
  }
}

/// QSet-2 template `index` (0..14): MIN, MAX, PERCENTILE, UDF-wrapped AVG
/// and SUM, three shapes each.
PlanDesc QSet2Plan(int index, double shift, uint64_t seed,
                   const TableShape& shape, Thresholds& thresholds) {
  const int group = index / 3;
  const int variant = index % 3;
  const int rank_shift = static_cast<int>(shift * 8.0);
  PlanDesc plan;
  switch (group) {
    case 0:
    case 1: {
      const AggregateKind kind =
          group == 0 ? AggregateKind::kMin : AggregateKind::kMax;
      if (variant == 0) plan = Input(kind, InputShape::kColumn, "bitrate_kbps");
      if (variant == 1) {
        plan = Input(kind, InputShape::kColPlusCol, "session_time",
                     "bitrate_kbps");
      }
      if (variant == 2) {
        plan = Input(kind, InputShape::kColTimesLit, "buffering_ratio", "",
                     100.0 * (1.0 + shift));
      }
      break;
    }
    case 2: {
      static const double kLevels[] = {0.5, 0.9, 0.99};
      if (variant == 0) {
        plan = Input(AggregateKind::kPercentile, InputShape::kColumn,
                     "session_time");
      }
      if (variant == 1) {
        plan = Input(AggregateKind::kPercentile, InputShape::kColPlusCol,
                     "bitrate_kbps", "join_time_ms");
      }
      if (variant == 2) {
        plan = Input(AggregateKind::kPercentile, InputShape::kColTimesLit,
                     "join_time_ms", "", 0.001 * (1.0 + shift));
      }
      plan.percentile = kLevels[variant];
      break;
    }
    default: {
      const AggregateKind kind =
          group == 3 ? AggregateKind::kAvg : AggregateKind::kSum;
      if (variant == 0) {
        plan = Input(kind, InputShape::kColumn, "session_time", "", 1.0, true);
      }
      if (variant == 1) {
        plan = Input(kind, InputShape::kColPlusCol, "bitrate_kbps",
                     "join_time_ms", 1.0, true);
      }
      if (variant == 2) {
        plan = Input(kind, InputShape::kColTimesLit, "bytes_mb", "",
                     0.5 * (1.0 + shift), true);
      }
      break;
    }
  }
  switch (variant) {
    case 0:
      return Threshold(plan, FilterShape::kGreater, "bitrate_kbps",
                       0.5 + 0.3 * shift, thresholds);
    case 1:
      return City(plan, seed, 5 + rank_shift, shape);
    default:
      return Threshold(plan, FilterShape::kLess, "join_time_ms",
                       0.8 - 0.3 * shift, thresholds);
  }
}

/// The k-th point of the golden-ratio sequence in [0, 1); 0 for k = 0.
double Shift(int k) {
  const double x = 0.6180339887498949 * static_cast<double>(k);
  return x - std::floor(x);
}

/// The workload's plans. repeat_mix interleaves the two sets, one QSet-2
/// plan in every kRepeatQSet2Every, each template repeated with constants
/// shifted by a golden-ratio sequence (city-filtered COUNTs, which have no
/// other constant, repeat among eight cities).
std::vector<PlanDesc> MakePool(const std::string& workload, uint64_t seed,
                               const TableShape& shape,
                               Thresholds& thresholds) {
  std::vector<PlanDesc> pool;
  if (workload == "qset1_closed_form") {
    for (int i = 0; i < 20; ++i) {
      pool.push_back(QSet1Plan(i, 0.0, seed, shape, thresholds));
    }
  } else if (workload == "qset2_bootstrap") {
    for (int i = 0; i < 15; ++i) {
      pool.push_back(QSet2Plan(i, 0.0, seed, shape, thresholds));
    }
  } else {
    int q1 = 0;
    int q2 = 0;
    for (int i = 0; i < kRepeatPool; ++i) {
      if (i % kRepeatQSet2Every == kRepeatQSet2Every - 1) {
        pool.push_back(QSet2Plan(q2 % 15, Shift(q2 / 15), seed, shape, thresholds));
        ++q2;
      } else {
        // Filter-major order: the four plans that share one filter and
        // input (SUM, AVG, VARIANCE, STDEV) sit next to each other.
        const int k = q1 % 20;
        pool.push_back(QSet1Plan(k % 5 * 4 + k / 5, Shift(q1 / 20), seed, shape, thresholds));
        ++q1;
      }
    }
  }
  return pool;
}

struct Request {
  int plan = 0;
  int64_t rng_seed = -1;
};

struct ClientList {
  std::vector<Request> requests;
  /// The first `warmup` requests form the untimed warm-up pass; the timed
  /// phase starts after them and wraps around the list.
  size_t warmup = 0;
  /// Every client holds the same list and takes its next request from one
  /// cursor shared by all of them, so the server sees the list in order
  /// (give or take the requests in flight), however the clients interleave.
  /// `warmup` then counts requests of all clients together.
  bool shared_cursor = false;
};

/// Fixed request lists. Pinned workloads: each client plays the pool in a
/// rotated order `rounds` times, every entry with its own pinned seed, and
/// the whole list repeats. repeat_mix: one Zipf-weighted schedule over the
/// pool (rank order = pool order), unpinned, which the clients play together
/// through a shared cursor. The schedule is smooth weighted round-robin, so
/// every stretch of it repeats each plan in its Zipf share: the run's mix
/// does not depend on how far the clients get. The shared cursor makes the
/// order in which the result cache sees the plans the schedule's own: with a
/// cursor per client, each at its own offset, the clients drift against each
/// other, and the cache's hit share drifts with them within a run and
/// between runs.
std::vector<ClientList> MakeClientLists(const std::string& workload,
                                        uint64_t seed, int clients,
                                        int pool_size) {
  std::vector<ClientList> lists(static_cast<size_t>(clients));
  if (workload == "repeat_mix") {
    const Zipf zipf(pool_size, kRepeatZipf);
    std::vector<double> credit(static_cast<size_t>(pool_size), 0.0);
    std::vector<Request> schedule;
    for (int i = 0; i < kRepeatListLength; ++i) {
      size_t pick = 0;
      for (size_t r = 0; r < credit.size(); ++r) {
        credit[r] += zipf.Mass(static_cast<int>(r));
        if (credit[r] > credit[pick]) pick = r;
      }
      credit[pick] -= 1.0;
      schedule.push_back({static_cast<int>(pick), -1});
    }
    for (ClientList& list : lists) {
      list.requests = schedule;
      list.warmup = kRepeatWarmup;
      list.shared_cursor = true;
    }
    return lists;
  }
  for (int c = 0; c < clients; ++c) {
    ClientList& list = lists[static_cast<size_t>(c)];
    const int rounds = workload == "qset1_closed_form" ? 4 : 2;
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < pool_size; ++i) {
        const int plan = (i + c * 5 + r) % pool_size;
        const int64_t pinned = static_cast<int64_t>(
            Mix(seed, static_cast<uint64_t>(c * 1000 + r),
                static_cast<uint64_t>(plan)) >>
            20);
        list.requests.push_back({plan, pinned});
      }
    }
    list.warmup = static_cast<size_t>(pool_size);
  }
  return lists;
}

// ---------------------------------------------------------------------------
// Served requests

/// What the benchmark keeps of one response.
struct Outcome {
  int client = 0;
  int plan = 0;
  int64_t used_seed = -1;
  bool ok = false;
  std::string error;
  aqp::ShedStage shed = aqp::ShedStage::kNone;
  bool deadline_hit = false;
  double estimate = 0.0;
  double center = 0.0;
  double half_width = 0.0;
  aqp::EstimationMethod method = aqp::EstimationMethod::kBootstrap;
  bool diagnostic_ran = false;
  bool diagnostic_ok = false;
  bool fell_back = false;
  int replicates_used = 0;
  double client_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double scan_ms = 0.0;
  double aggregate_ms = 0.0;
  double resample_ms = 0.0;
  double diagnostic_ms = 0.0;
  double ci_ms = 0.0;
  int64_t chunks_total = 0;
  bool cache_hit = false;
  bool shared_scan = false;
  double shared_scan_wait_ms = 0.0;
};

Outcome Serve(aqp::AqpServer& server, aqp::SessionId session, int client,
              const Request& request, const aqp::QuerySpec& query,
              std::string* chrome_trace) {
  aqp::QueryRequest q;
  q.query = query;
  q.rng_seed = request.rng_seed;
  Outcome out;
  out.client = client;
  out.plan = request.plan;
  out.start_ns = NowNs();
  aqp::QueryResponse response = server.Execute(session, q);
  out.end_ns = NowNs();
  out.client_ms = static_cast<double>(out.end_ns - out.start_ns) / 1e6;
  out.ok = response.status.ok();
  if (!out.ok) out.error = response.status.ToString();
  out.used_seed = response.rng_seed;
  out.shed = response.shed_stage;
  out.queue_ms = response.queue_wait_ms;
  out.service_ms = response.service_ms;
  const aqp::ApproxResult& r = response.result;
  out.deadline_hit = r.deadline_hit;
  out.estimate = r.estimate;
  out.center = r.ci.center;
  out.half_width = r.ci.half_width;
  out.method = r.method;
  out.diagnostic_ran = r.diagnostic_ran;
  out.diagnostic_ok = r.diagnostic_ok;
  out.fell_back = r.fell_back;
  out.replicates_used = r.replicates_used;
  const aqp::QueryProfile& p = r.profile;
  out.scan_ms = p.scan_seconds * 1e3;
  out.aggregate_ms = p.aggregate_seconds * 1e3;
  out.resample_ms = p.resample_seconds * 1e3;
  out.diagnostic_ms = p.diagnostic_seconds * 1e3;
  out.ci_ms = p.ci_seconds * 1e3;
  out.chunks_total = p.chunks_total;
  out.cache_hit = p.cache_hit;
  out.shared_scan = p.shared_scan;
  out.shared_scan_wait_ms = p.shared_scan_wait_ms;
  if (chrome_trace != nullptr && !p.chrome_trace_json.empty()) {
    *chrome_trace = p.chrome_trace_json;
  }
  return out;
}

/// Per-plan Chrome traces kept from the traced run (first served request of
/// each plan).
struct QueryTraces {
  std::mutex mu;
  std::map<int, std::string> by_plan;
};

struct ServedPhase {
  std::vector<Outcome> warmup;
  std::vector<Outcome> timed;
  double timed_seconds = 0.0;
};

/// Runs every client's warm-up pass (continued until kWarmupSeconds have
/// passed), then the timed closed loop for `seconds`. Each client stops issuing once the time is up; the phase ends
/// when the last client's last request returns. All threads are joined
/// before this returns.
ServedPhase RunClients(aqp::AqpServer& server,
                       const std::vector<aqp::QuerySpec>& queries,
                       const std::vector<ClientList>& lists, double seconds,
                       QueryTraces* traces) {
  const size_t clients = lists.size();
  std::vector<std::vector<Outcome>> warm(clients);
  std::vector<std::vector<Outcome>> timed(clients);
  std::vector<int64_t> finished(clients, 0);
  std::atomic<size_t> warmed{0};
  std::atomic<size_t> shared_next{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<bool> go{false};
  const int64_t warm_until_ns =
      NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);

  auto client_main = [&](size_t c) {
    const aqp::SessionId session = server.OpenSession();
    const ClientList& list = lists[c];
    auto serve = [&](size_t index) {
      const Request& request = list.requests[index];
      std::string chrome;
      bool want_trace = false;
      if (traces != nullptr) {
        std::lock_guard<std::mutex> lock(traces->mu);
        want_trace = traces->by_plan.size() < kMaxQueryTraces &&
                     traces->by_plan.count(request.plan) == 0;
      }
      Outcome out = Serve(server, session, static_cast<int>(c), request,
                          queries[static_cast<size_t>(request.plan)],
                          want_trace ? &chrome : nullptr);
      if (want_trace && !chrome.empty()) {
        std::lock_guard<std::mutex> lock(traces->mu);
        traces->by_plan.emplace(request.plan, std::move(chrome));
      }
      return out;
    };
    size_t own = 0;
    auto taken = [&] { return list.shared_cursor ? shared_next.load() : own; };
    auto next = [&] {
      const size_t index = list.shared_cursor ? shared_next.fetch_add(1) : own++;
      return index % list.requests.size();
    };
    while (taken() < list.warmup || NowNs() < warm_until_ns) {
      warm[c].push_back(serve(next()));
    }
    warmed.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    const int64_t stop_ns =
        start_ns.load() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < stop_ns) timed[c].push_back(serve(next()));
    finished[c] = NowNs();
    (void)server.CloseSession(session).ok();
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_main, c);
  while (warmed.load() < clients) std::this_thread::yield();
  start_ns.store(NowNs());
  go.store(true);
  for (std::thread& t : threads) t.join();

  ServedPhase phase;
  int64_t end = start_ns.load();
  for (size_t c = 0; c < clients; ++c) {
    end = std::max(end, finished[c]);
    phase.warmup.insert(phase.warmup.end(), warm[c].begin(), warm[c].end());
    phase.timed.insert(phase.timed.end(), timed[c].begin(), timed[c].end());
  }
  phase.timed_seconds = static_cast<double>(end - start_ns.load()) / 1e9;
  return phase;
}

// ---------------------------------------------------------------------------
// Correctness checks

class Checker {
 public:
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failures_;
    if (failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
  }
  bool ok() const { return failures_ == 0; }

 private:
  std::mutex mu_;
  int64_t failures_ = 0;
};

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Per-aggregate-kind tallies of the diagnostic's verdicts and of how often
/// an accepted CI covered the exact answer (reported, not gated).
struct KindTally {
  int64_t answers = 0;
  int64_t diagnosed = 0;
  int64_t accepted = 0;
  int64_t covered = 0;
  double worst_error_multiple = 0.0;
};

struct Bits {
  double estimate;
  double center;
  double half_width;
  int replicates;
};

/// Checks (b), (c), (d) on one OK response and (e)/(f)'s bit identity
/// against every earlier response of the same (plan, rng_seed).
class AnswerChecks {
 public:
  AnswerChecks(const std::vector<PlanDesc>& pool,
               const std::vector<ExactAnswer>& exact, Checker& checker)
      : pool_(pool), exact_(exact), checker_(checker) {}

  void Check(const Outcome& o) {
    const PlanDesc& plan = pool_[static_cast<size_t>(o.plan)];
    const ExactAnswer& truth = exact_[static_cast<size_t>(o.plan)];
    const std::string where = plan.Describe() + " seed " +
                              std::to_string(o.used_seed) + ": ";
    if (!o.ok) return;  // Counted as failed, not as incorrect.
    // (d) full fidelity on every request.
    if (o.shed != aqp::ShedStage::kNone) {
      checker_.Fail(where + "shed stage " + aqp::ShedStageName(o.shed));
    }
    if (o.deadline_hit) checker_.Fail(where + "deadline_hit without a deadline");
    if (o.method == aqp::EstimationMethod::kBootstrap &&
        o.replicates_used != aqp::EngineOptions().bootstrap_replicates) {
      checker_.Fail(where + "bootstrap K' = " + std::to_string(o.replicates_used));
    }
    // (b) finite and inside the population's range where the aggregate is.
    if (!std::isfinite(o.estimate) || !std::isfinite(o.half_width) ||
        o.half_width < 0.0) {
      checker_.Fail(where + "non-finite estimate or half-width");
      return;
    }
    switch (plan.kind) {
      case AggregateKind::kMin:
        if (o.estimate < truth.input_min) checker_.Fail(where + "MIN below population MIN");
        break;
      case AggregateKind::kMax:
        if (o.estimate > truth.input_max) checker_.Fail(where + "MAX above population MAX");
        break;
      case AggregateKind::kPercentile:
      case AggregateKind::kAvg:
        if (o.estimate < truth.input_min || o.estimate > truth.input_max) {
          checker_.Fail(where + "estimate outside the population range");
        }
        break;
      default:
        break;
    }
    // An exact fallback must be the exact answer.
    if (o.method == aqp::EstimationMethod::kExact && !Close(o.estimate, truth.value)) {
      checker_.Fail(where + "exact fallback differs from the exact answer");
    }
    // (c) accepted answers are honest.
    const double error = std::fabs(o.estimate - truth.value);
    const double slack = 1e-9 * std::max(1.0, std::fabs(truth.value));
    std::lock_guard<std::mutex> lock(mu_);
    KindTally& tally = tallies_[plan.udf ? std::string("UDF-") + aqp::AggregateKindName(plan.kind)
                                         : std::string(aqp::AggregateKindName(plan.kind))];
    ++tally.answers;
    if (o.diagnostic_ran) ++tally.diagnosed;
    if (o.diagnostic_ran && o.diagnostic_ok) {
      ++tally.accepted;
      if (error <= o.half_width + slack) ++tally.covered;
      if (o.half_width > 0.0) {
        tally.worst_error_multiple = std::max(tally.worst_error_multiple, error / o.half_width);
      }
      if (error > kAcceptedErrorMultiple * o.half_width + slack) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "accepted answer %.9g is %.3g half-widths (%.3g) from exact %.9g",
                      o.estimate, o.half_width > 0 ? error / o.half_width : INFINITY,
                      o.half_width, truth.value);
        checker_.Fail(where + buf);
      }
    }
    // (e)/(f) one (plan, rng_seed) always gives the same bits.
    const Bits bits{o.estimate, o.center, o.half_width, o.replicates_used};
    auto [it, inserted] = seen_.emplace(std::make_pair(o.plan, o.used_seed), bits);
    if (!inserted && !(SameBits(it->second.estimate, bits.estimate) &&
                       SameBits(it->second.center, bits.center) &&
                       SameBits(it->second.half_width, bits.half_width) &&
                       it->second.replicates == bits.replicates)) {
      checker_.Fail(where + "same plan and rng_seed gave different bits");
    }
  }

  const std::map<std::string, KindTally>& tallies() const { return tallies_; }

 private:
  const std::vector<PlanDesc>& pool_;
  const std::vector<ExactAnswer>& exact_;
  Checker& checker_;
  std::mutex mu_;
  std::map<std::pair<int, int64_t>, Bits> seen_;
  std::map<std::string, KindTally> tallies_;
};

/// Computes the benchmark's own exact answers for the pool plans marked in
/// `needed` and compares each with AqpEngine::ExecuteExact (check a). Runs
/// `workers` threads.
std::vector<ExactAnswer> ExactAnswers(const aqp::Table& table,
                                      const aqp::AqpEngine& engine,
                                      const std::vector<PlanDesc>& pool,
                                      const std::vector<aqp::QuerySpec>& queries,
                                      const std::vector<bool>& needed, int workers,
                                      Checker& checker) {
  std::vector<ExactAnswer> answers(pool.size());
  std::atomic<size_t> next{0};
  auto work = [&]() {
    for (size_t i = next.fetch_add(1); i < pool.size(); i = next.fetch_add(1)) {
      if (!needed[i]) continue;
      if (!ExactEvaluate(table, pool[i], &answers[i])) {
        checker.Fail(pool[i].Describe() + ": no exact answer (empty filter)");
        continue;
      }
      aqp::Result<double> program = engine.ExecuteExact(queries[i]);
      if (!program.ok()) {
        checker.Fail(pool[i].Describe() + ": ExecuteExact failed: " +
                     program.status().ToString());
      } else if (!Close(*program, answers[i].value)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), ": ExecuteExact %.17g vs benchmark %.17g",
                      *program, answers[i].value);
        checker.Fail(pool[i].Describe() + buf);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return answers;
}

/// Replays up to kReplays distinct timed requests one at a time on the idle
/// server with their rng_seed pinned, and checks the bits match (check e;
/// check f when `hits_only`, over cache hits).
int Replay(aqp::AqpServer& server, const std::vector<aqp::QuerySpec>& queries,
           const std::vector<PlanDesc>& pool, const std::vector<Outcome>& timed,
           bool hits_only, Checker& checker) {
  std::vector<const Outcome*> picks;
  std::map<std::pair<int, int64_t>, bool> taken;
  // Eight candidates per pick: about a quarter of repeat_mix requests are
  // hits, so fewer would often leave the hit replay short of kReplays.
  const size_t stride = std::max<size_t>(1, timed.size() / (kReplays * 8));
  for (size_t i = 0; i < timed.size() && picks.size() < kReplays; i += stride) {
    const Outcome& o = timed[i];
    if (!o.ok || (hits_only && !o.cache_hit)) continue;
    if (!taken.emplace(std::make_pair(o.plan, o.used_seed), true).second) continue;
    picks.push_back(&o);
  }
  const aqp::SessionId session = server.OpenSession();
  for (const Outcome* o : picks) {
    Outcome again = Serve(server, session, -1, {o->plan, o->used_seed},
                          queries[static_cast<size_t>(o->plan)], nullptr);
    if (!again.ok || !SameBits(again.estimate, o->estimate) ||
        !SameBits(again.center, o->center) ||
        !SameBits(again.half_width, o->half_width) ||
        again.replicates_used != o->replicates_used) {
      checker.Fail(pool[static_cast<size_t>(o->plan)].Describe() + " seed " +
                   std::to_string(o->used_seed) +
                   (hits_only ? ": cache hit" : ": pinned request") +
                   " replayed to different bits");
    }
  }
  (void)server.CloseSession(session).ok();
  return static_cast<int>(picks.size());
}

// ---------------------------------------------------------------------------
// Tracing: the benchmark's own spans, kept in memory and written once.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int tid = 0;
};

class SpanLog {
 public:
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request, int tid) {
    const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back({std::move(name), start_ns, end_ns, id, parent, request, tid});
    return id;
  }
  /// Closes span `id` (one opened before its children were timed).
  void SetEnd(int64_t id, int64_t end_ns) {
    spans_[static_cast<size_t>(id - 1)].end_ns = end_ns;
  }
  /// Times `fn` as a child span of `parent`; returns the elapsed seconds.
  double Time(const std::string& name, int64_t parent, int64_t request,
              const std::function<void()>& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    Add(name, start, end, parent, request, 1000);
    return static_cast<double>(end - start) / 1e9;
  }

  /// Chrome trace-event JSON of every span, with the engine's per-query
  /// traces embedded under "queryTraces".
  std::string ChromeTrace(int64_t origin_ns,
                          const std::map<int, std::string>& query_traces,
                          const std::vector<PlanDesc>& pool) const {
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"name\": " + JsonString(s.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
             ", \"ts\": " + JsonNumber(static_cast<double>(s.start_ns - origin_ns) / 1e3) +
             ", \"dur\": " + JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
             ", \"args\": {\"span\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"request\": " + std::to_string(s.request) + "}}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "],\n\"queryTraces\": [\n";
    size_t n = 0;
    for (const auto& [plan, trace] : query_traces) {
      out += "{\"plan\": " + JsonString(pool[static_cast<size_t>(plan)].Describe()) +
             ", \"trace\": " + trace + "}";
      out += ++n < query_traces.size() ? ",\n" : "\n";
    }
    return out + "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metrics

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

template <typename F>
std::vector<double> Collect(const std::vector<Outcome>& outcomes, F pick,
                            bool executed_only) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    if (!o.ok || (executed_only && o.cache_hit)) continue;
    values.push_back(pick(o));
  }
  return values;
}

std::vector<Metric> EndToEnd(const ServedPhase& phase, double setup_s) {
  const std::vector<double> latency =
      Collect(phase.timed, [](const Outcome& o) { return o.client_ms; }, false);
  return {
      {"queries_per_s", static_cast<double>(latency.size()) / phase.timed_seconds,
       "queries/s"},
      {"latency_p50_ms", Percentile(latency, 0.5), "ms"},
      {"latency_p95_ms", Percentile(latency, 0.95), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

struct LayerTimes {
  std::vector<double> scan_s;
  int64_t scan_rows = 0;
  double scan_total_s = 0.0;
  std::vector<double> closed_form_s;
  double weights = 0.0;
  double weights_s = 0.0;
  double row_replicates = 0.0;
  double resample_s = 0.0;
  std::vector<double> diagnostic_s;
  std::vector<double> fingerprint_s;
  std::vector<double> lookup_s;
};

/// Times direct calls into each layer's public functions over `plans`, on
/// the uniform sample, recording one span per call.
LayerTimes TimeLayers(aqp::AqpServer& server, const std::vector<PlanDesc>& pool,
                      const std::vector<aqp::QuerySpec>& queries,
                      const std::vector<int>& plans, bool sharing, uint64_t seed, SpanLog& spans,
                      Checker& checker) {
  LayerTimes t;
  const aqp::AqpEngine& engine = server.engine();
  const aqp::Sample* sample = *engine.samples().SelectAtLeast(kTable, kSampleRows);
  const double scale = sample->scale_factor();
  const double alpha = engine.options().alpha;
  const int replicates = engine.options().bootstrap_replicates;
  aqp::DiagnosticConfig config = engine.options().diagnostic;
  config.alpha = alpha;

  // A private cache filled with one served result per plan, for timing
  // ResultCache::Lookup without touching the server's own cache.
  aqp::ResultCache cache;
  if (sharing) {
    aqp::ApproxResult stored;
    stored.method = aqp::EstimationMethod::kClosedForm;
    for (int p : plans) {
      if (aqp::PlanCanonicalizable(queries[static_cast<size_t>(p)])) {
        cache.Insert(aqp::CanonicalPlanText(queries[static_cast<size_t>(p)]), stored, 0);
      }
    }
  }

  std::vector<double> buffer(4096);
  int64_t request = 1'000'000;
  for (int p : plans) {
    const PlanDesc& plan = pool[static_cast<size_t>(p)];
    const aqp::QuerySpec& query = queries[static_cast<size_t>(p)];
    aqp::Rng rng(Mix(seed, 0x1a7e5, static_cast<uint64_t>(p)));
    ++request;
    const int64_t root_start = NowNs();
    const int64_t root = spans.Add("layers " + plan.Describe(), root_start, root_start,
                                   0, request, 1000);
    aqp::Result<aqp::PreparedQuery> prepared = aqp::Status::Internal("not run");
    const double scan = spans.Time("scan.PrepareQuery", root, request, [&] {
      prepared = aqp::PrepareQuery(*sample->data, query);
    });
    if (!prepared.ok()) {
      checker.Fail(plan.Describe() + ": PrepareQuery failed");
      spans.SetEnd(root, NowNs());
      continue;
    }
    t.scan_s.push_back(scan);
    t.scan_total_s += scan;
    t.scan_rows += sample->num_rows();
    const int64_t passing = prepared->num_passing();
    if (plan.ClosedForm()) {
      aqp::ClosedFormEstimator closed_form;
      t.closed_form_s.push_back(spans.Time(
          "closed_form.EstimateFromPrepared", root, request, [&] {
            (void)closed_form
                .EstimateFromPrepared(*prepared, query.aggregate, scale, alpha, rng)
                .ok();
          }));
      t.diagnostic_s.push_back(spans.Time(
          "diagnostic.RunDiagnosticConsolidated", root, request, [&] {
            (void)aqp::RunDiagnosticConsolidated(*sample->data, query, closed_form,
                                                 sample->population_rows, config,
                                                 rng, engine.runtime(), &*prepared)
                .ok();
          }));
    } else {
      const int64_t total = passing * replicates;
      t.weights += static_cast<double>(total);
      t.weights_s += spans.Time("weights.FillUniform+PoissonOne", root, request, [&] {
        for (int64_t done = 0; done < total; done += 4096) {
          const int64_t n = std::min<int64_t>(4096, total - done);
          rng.FillUniform(buffer.data(), n);
          aqp::PoissonOneWeightsFromUniforms(buffer.data(), n);
        }
      });
      t.row_replicates += static_cast<double>(total);
      t.resample_s += spans.Time("resample.MultiResampleFromPrepared", root, request, [&] {
        (void)aqp::MultiResampleFromPrepared(*prepared, query.aggregate, scale,
                                             replicates, rng, engine.runtime())
            .ok();
      });
      aqp::BootstrapEstimator bootstrap(replicates);
      bootstrap.set_runtime(engine.runtime());
      t.diagnostic_s.push_back(spans.Time(
          "diagnostic.RunDiagnosticConsolidated", root, request, [&] {
            (void)aqp::RunDiagnosticConsolidated(*sample->data, query, bootstrap,
                                                 sample->population_rows, config,
                                                 rng, engine.runtime(), &*prepared)
                .ok();
          }));
    }
    if (sharing && aqp::PlanCanonicalizable(query)) {
      // One call is about a microsecond: time a batch and divide.
      constexpr int kBatch = 200;
      std::string key;
      t.fingerprint_s.push_back(
          spans.Time("plan.CanonicalPlanText x200", root, request, [&] {
            for (int i = 0; i < kBatch; ++i) key = aqp::CanonicalPlanText(query);
          }) / kBatch);
      aqp::ResultCache::Hit hit;
      t.lookup_s.push_back(spans.Time("cache.Lookup x200", root, request, [&] {
                             for (int i = 0; i < kBatch; ++i) {
                               (void)cache.Lookup(key, 0.0, &hit);
                             }
                           }) / kBatch);
    }
    spans.SetEnd(root, NowNs());
  }
  return t;
}

std::vector<Metric> PerLayer(const ServedPhase& phase, const LayerTimes& t,
                             bool sharing, double uniform_s, double stratified_s) {
  const auto& timed = phase.timed;
  auto p50 = [&](auto pick) { return Percentile(Collect(timed, pick, true), 0.5); };
  int64_t executed = 0;
  int64_t diagnosed = 0;
  int64_t accepted = 0;
  int64_t eligible = 0;
  int64_t hits = 0;
  int64_t shared = 0;
  double chunks = 0.0;
  std::vector<double> shared_wait;
  for (const Outcome& o : timed) {
    if (!o.ok) continue;
    if (sharing) {
      ++eligible;  // repeat_mix requests are all unpinned.
      if (o.cache_hit) ++hits;
    }
    if (o.cache_hit) continue;
    ++executed;
    chunks += static_cast<double>(o.chunks_total);
    if (o.diagnostic_ran) ++diagnosed;
    if (o.diagnostic_ran && o.diagnostic_ok) ++accepted;
    if (o.shared_scan) {
      ++shared;
      shared_wait.push_back(o.shared_scan_wait_ms);
    }
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::vector<double> overhead = Collect(
      timed, [](const Outcome& o) { return (o.client_ms - o.service_ms - o.queue_ms) * 1e3; },
      false);
  return {
      {"server.overhead_us", Percentile(overhead, 0.5), "us"},
      {"server.admission_us", p50([](const Outcome& o) { return o.queue_ms * 1e3; }), "us"},
      {"engine.service_ms", p50([](const Outcome& o) { return o.service_ms; }), "ms"},
      {"engine.scan_ms", p50([](const Outcome& o) { return o.scan_ms; }), "ms"},
      {"engine.aggregate_ms", p50([](const Outcome& o) { return o.aggregate_ms; }), "ms"},
      {"engine.resample_ms", p50([](const Outcome& o) { return o.resample_ms; }), "ms"},
      {"engine.diagnostic_ms", p50([](const Outcome& o) { return o.diagnostic_ms; }), "ms"},
      {"engine.ci_ms", p50([](const Outcome& o) { return o.ci_ms; }), "ms"},
      {"scan.ms", Median(t.scan_s) * 1e3, "ms"},
      {"scan.rows_per_s", ratio(static_cast<double>(t.scan_rows), t.scan_total_s), "rows/s"},
      {"closed_form.us", Median(t.closed_form_s) * 1e6, "us"},
      {"weights.per_s", ratio(t.weights, t.weights_s), "1/s"},
      {"resample.row_replicates_per_s", ratio(t.row_replicates, t.resample_s), "1/s"},
      {"diagnostic.ms", Median(t.diagnostic_s) * 1e3, "ms"},
      {"diagnostic.accept_ratio", ratio(static_cast<double>(accepted), static_cast<double>(diagnosed)), "ratio"},
      {"runtime.chunks_per_query", ratio(chunks, static_cast<double>(executed)), "count"},
      {"plan.fingerprint_us", Median(t.fingerprint_s) * 1e6, "us"},
      {"cache.lookup_us", Median(t.lookup_s) * 1e6, "us"},
      {"cache.hit_ratio", ratio(static_cast<double>(hits), static_cast<double>(eligible)), "ratio"},
      {"shared_scan.share_ratio", ratio(static_cast<double>(shared), static_cast<double>(executed)), "ratio"},
      {"shared_scan.wait_ms", Mean(shared_wait), "ms"},
      {"setup.uniform_sample_s", uniform_s, "s"},
      {"setup.stratified_sample_s", stratified_s, "s"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": " +
           JsonNumber(metrics[i].value);
  }
  return out + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (qset1_closed_form, "
                 "qset2_bootstrap, repeat_mix)\n", args.workload.c_str());
    return 2;
  }
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  // Clients never outnumber admission slots (one per pool worker), so the
  // degrade / defer / reject ladder stays idle.
  const int pool_width = args.pool > 0 ? args.pool : spec->pool;
  const int clients =
      std::min({args.clients > 0 ? args.clients : spec->clients, nproc, pool_width});

  const int64_t process_start = NowNs();
  auto progress = [&](const char* step) {
    std::fprintf(stderr, "servebench: %-22s at %.2f s\n", step,
                 static_cast<double>(NowNs() - process_start) / 1e9);
  };
  // Inputs, from the seed alone (not timed).
  const TableShape shape;
  std::shared_ptr<aqp::Table> table = MakeSessions(args.seed, shape);
  if (table == nullptr) {
    std::fprintf(stderr, "table generation failed\n");
    return 2;
  }
  Thresholds thresholds(*table);
  const std::vector<PlanDesc> pool = MakePool(spec->name, args.seed, shape, thresholds);
  std::vector<aqp::QuerySpec> queries;
  for (const PlanDesc& plan : pool) queries.push_back(BuildQuery(plan, kTable));
  const std::vector<ClientList> lists =
      MakeClientLists(spec->name, args.seed, clients, static_cast<int>(pool.size()));

  progress("inputs generated");
  // The program's own set-up: server construction, RegisterTable and both
  // samples. Every knob keeps its default except the pool width, tracing
  // in the traced run, and sharing in repeat_mix.
  const int64_t setup_start = NowNs();
  aqp::ServerOptions options;
  options.engine.num_threads = pool_width;
  options.engine.enable_tracing = args.trace;
  options.enable_shared_scans = spec->sharing;
  options.cache.enabled = spec->sharing;
  auto server = std::make_unique<aqp::AqpServer>(options);
  aqp::AqpEngine& engine = server->engine();
  if (!engine.RegisterTable(table).ok()) return 2;
  const int64_t uniform_start = NowNs();
  if (!engine.CreateSample(kTable, kSampleRows).ok()) return 2;
  const int64_t stratified_start = NowNs();
  if (!engine.CreateStratifiedSample(kTable, "city", kStratumCap).ok()) return 2;
  const int64_t setup_end = NowNs();
  const double setup_s = static_cast<double>(setup_end - setup_start) / 1e9;

  progress("program set up");

  aqp::Counter* evictions = aqp::MetricsRegistry::Default().GetCounter("server.cache.evictions");
  aqp::Counter* insertions = aqp::MetricsRegistry::Default().GetCounter("server.cache.insertions");
  const int64_t evictions_before = evictions->value();
  const int64_t insertions_before = insertions->value();

  QueryTraces traces;
  const ServedPhase phase =
      RunClients(*server, queries, lists, args.seconds, args.trace ? &traces : nullptr);
  progress("served phase done");

  // Exact answers for every plan that was served, then checks (a)-(f).
  Checker checker;
  std::vector<bool> served(pool.size(), false);
  for (const auto* outcomes : {&phase.warmup, &phase.timed}) {
    for (const Outcome& o : *outcomes) served[static_cast<size_t>(o.plan)] = true;
  }
  const std::vector<ExactAnswer> exact =
      ExactAnswers(*table, engine, pool, queries, served, kExactWorkers, checker);
  progress("exact answers checked");
  AnswerChecks answers(pool, exact, checker);
  for (const Outcome& o : phase.warmup) answers.Check(o);
  for (const Outcome& o : phase.timed) answers.Check(o);
  int64_t failed = 0;
  for (const Outcome& o : phase.timed) {
    if (!o.ok) {
      ++failed;
      if (failed <= 5) std::fprintf(stderr, "request failed: %s\n", o.error.c_str());
    }
  }
  const int replayed = Replay(*server, queries, pool, phase.timed, false, checker);
  const int hits_replayed =
      spec->sharing ? Replay(*server, queries, pool, phase.timed, true, checker) : 0;

  progress("replays checked");
  const std::vector<Metric> e2e = EndToEnd(phase, setup_s);
  int64_t hits = 0;
  int64_t shared = 0;
  for (const Outcome& o : phase.timed) {
    hits += o.cache_hit ? 1 : 0;
    shared += o.shared_scan ? 1 : 0;
  }
  std::fprintf(stderr,
               "servebench %s seed=%llu workers=%d clients=%d plans=%zu timed=%.3fs "
               "requests=%zu failed=%lld replayed=%d hits_replayed=%d "
               "cache_hits=%lld shared_scans=%lld cache_insertions=%lld "
               "cache_evictions=%lld trace=%d\n",
               spec->name, static_cast<unsigned long long>(args.seed), pool_width,
               clients, pool.size(), phase.timed_seconds, phase.timed.size(),
               static_cast<long long>(failed), replayed, hits_replayed,
               static_cast<long long>(hits), static_cast<long long>(shared),
               static_cast<long long>(insertions->value() - insertions_before),
               static_cast<long long>(evictions->value() - evictions_before),
               args.trace ? 1 : 0);
  std::fprintf(stderr, "end_to_end %s\n", MetricsJson(e2e).c_str());
  if (spec->sharing) {
    // The hit share sets which quantile of the miss latencies the
    // end-to-end median falls on.
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    for (const Outcome& o : phase.timed) {
      if (o.ok) (o.cache_hit ? hit_ms : miss_ms).push_back(o.client_ms);
    }
    std::fprintf(stderr,
                 "by cache outcome: hit_share=%.3f hit_p50_ms=%.4f "
                 "miss_p25_ms=%.3f miss_p50_ms=%.3f miss_p75_ms=%.3f\n",
                 static_cast<double>(hit_ms.size()) /
                     static_cast<double>(std::max<size_t>(1, hit_ms.size() + miss_ms.size())),
                 Percentile(hit_ms, 0.5), Percentile(miss_ms, 0.25),
                 Percentile(miss_ms, 0.5), Percentile(miss_ms, 0.75));
  }
  for (const auto& [kind, tally] : answers.tallies()) {
    std::fprintf(stderr,
                 "diagnostic %-12s answers=%lld diagnosed=%lld accepted=%lld "
                 "covered=%lld worst_error=%.3g half-widths\n",
                 kind.c_str(), static_cast<long long>(tally.answers),
                 static_cast<long long>(tally.diagnosed),
                 static_cast<long long>(tally.accepted),
                 static_cast<long long>(tally.covered), tally.worst_error_multiple);
  }

  if (pool.size() <= 20) {
    for (size_t p = 0; p < pool.size(); ++p) {
      std::vector<double> ms;
      for (const Outcome& o : phase.timed) {
        if (o.ok && o.plan == static_cast<int>(p)) ms.push_back(o.client_ms);
      }
      std::fprintf(stderr, "plan %-70s n=%3zu p50=%8.3f ms max=%8.3f ms\n",
                   pool[p].Describe().c_str(), ms.size(), Median(ms),
                   ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()));
    }
  }
  // Completions per second of the timed phase: shows stalls and drift
  // inside a run.
  if (!phase.timed.empty()) {
    int64_t first = phase.timed.front().start_ns;
    int64_t last = first;
    for (const Outcome& o : phase.timed) {
      first = std::min(first, o.start_ns);
      last = std::max(last, o.end_ns);
    }
    std::vector<int> per_second(static_cast<size_t>((last - first) / 1'000'000'000) + 1, 0);
    for (const Outcome& o : phase.timed) {
      ++per_second[static_cast<size_t>((o.end_ns - first) / 1'000'000'000)];
    }
    std::fprintf(stderr, "completions per second:");
    for (int count : per_second) std::fprintf(stderr, " %d", count);
    std::fprintf(stderr, "\n");
  }
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    SpanLog spans;
    for (const Outcome& o : phase.timed) {
      const int64_t request = static_cast<int64_t>(&o - phase.timed.data()) + 1;
      const int64_t root = spans.Add("request " + pool[static_cast<size_t>(o.plan)].Describe(),
                                     o.start_ns, o.end_ns, 0, request, o.client);
      if (o.cache_hit) continue;
      const int64_t admitted = o.start_ns + static_cast<int64_t>(o.queue_ms * 1e6);
      spans.Add("server.admission", o.start_ns, admitted, root, request, o.client);
      spans.Add("engine.service", admitted,
                admitted + static_cast<int64_t>(o.service_ms * 1e6), root, request,
                o.client);
    }
    std::vector<int> layer_plans;
    const int distinct = spec->sharing ? kRepeatLayerPlans : static_cast<int>(pool.size());
    for (int p = 0; p < distinct; ++p) layer_plans.push_back(p);
    const LayerTimes layer_times =
        TimeLayers(*server, pool, queries, layer_plans, spec->sharing,
                   args.seed, spans, checker);
    reported = PerLayer(phase, layer_times, spec->sharing,
                        static_cast<double>(stratified_start - uniform_start) / 1e9,
                        static_cast<double>(setup_end - stratified_start) / 1e9);
    std::fprintf(stderr, "per_layer %s\n", MetricsJson(reported).c_str());

    const std::string stem = args.out_dir + "/" + spec->name + "-seed" +
                             std::to_string(args.seed);
    std::string table_json = "{\"workload\": " + JsonString(spec->name) +
                             ", \"seed\": " + std::to_string(args.seed) +
                             ", \"clients\": " + std::to_string(clients) +
                             ", \"traced_end_to_end\": " + MetricsJson(e2e) +
                             ", \"per_layer\": " + MetricsJson(reported) + "}\n";
    if (!WriteFile(stem + ".layers.json", table_json) ||
        !WriteFile(stem + ".trace.json",
                   spans.ChromeTrace(setup_start, traces.by_plan, pool))) {
      std::fprintf(stderr, "could not write %s.*\n", stem.c_str());
    } else {
      std::fprintf(stderr, "wrote %s.layers.json and %s.trace.json\n", stem.c_str(),
                   stem.c_str());
    }
  }

  // Tear the server down (joining its pool) before the result line.
  server.reset();
  const bool correct = checker.ok();
  std::printf("%s\n", ResultLine(correct, static_cast<int64_t>(phase.timed.size()),
                                 failed, reported)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <qset1_closed_form|qset2_bootstrap|"
                 "repeat_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--clients <n>] [--pool <n>] [--out <dir>]\n");
    return 2;
  }
  return servebench::Run(args);
}
