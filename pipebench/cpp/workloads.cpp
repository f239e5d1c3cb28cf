#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include "analytics/figures.hpp"
#include "analytics/infrastructure.hpp"
#include "analytics/parallel.hpp"
#include "net/pcap.hpp"
#include "probe/probe.hpp"
#include "probe/sharded_probe.hpp"
#include "query/engine.hpp"
#include "query/figures.hpp"
#include "query/store.hpp"
#include "render.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace pipebench {

namespace ew = edgewatch;
namespace fs = std::filesystem;
using ew::core::CivilDate;
using ew::core::MonthIndex;
using ew::services::ServiceId;

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, value, unit});
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

void Checks::count(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                        std::to_string(attempted) + " failed");
  }
}

namespace {

// ---------------------------------------------------------------- shape

constexpr double kPeakScale = 1.0;      ///< full population on the busy days
constexpr double kHistoryScale = 0.25;  ///< reduced population over five years
constexpr std::size_t kResponseCap = 4096;  ///< server payload rendered per flow
constexpr int kSetupRuns = 3;
constexpr std::size_t kFrameBatch = 256;  ///< serial Probe::process(span) batch
constexpr double kStageTolerance = 0.02;  ///< stage spans vs run_s
constexpr int kSessionQueries = 400;
constexpr int kRefreshEvery = 100;  ///< one refresh per this many queries

/// Every run measures the same synthetic ISP: the paper scenario built
/// from one fixed seed. --seed picks which days are captured and stored and
/// which queries are asked, so inputs differ between seeds while the
/// population, and with it the amount of traffic per day, stays put.
constexpr std::uint64_t kScenarioSeed = 2018;

CivilDate date(MonthIndex m, int day) {
  return {m.year(), static_cast<std::uint8_t>(m.month()), static_cast<std::uint8_t>(day)};
}

/// Two consecutive busy days in the second half of November 2016, just
/// after the FB-Zero deployment (event F), so every DPI path of the probe
/// sees traffic.
std::vector<CivilDate> peak_days(std::uint64_t seed) {
  const int first = 14 + static_cast<int>(seed % 14);
  return {date(MonthIndex{2016, 11}, first), date(MonthIndex{2016, 11}, first + 1)};
}

/// Day of the month of the history's first sample day; the second is 13
/// days later. Both stay at or before the 26th.
int history_offset(std::uint64_t seed) { return 1 + static_cast<int>(seed % 13); }

/// Two sample days per month over the paper's window 2013-03 .. 2017-09.
std::vector<CivilDate> history_days(std::uint64_t seed) {
  const int first = history_offset(seed);
  std::vector<CivilDate> out;
  for (MonthIndex m{2013, 3}; m <= MonthIndex{2017, 9}; m = m + 1) {
    out.push_back(date(m, first));
    out.push_back(date(m, first + 13));
  }
  return out;
}

/// Lake days the rollup store never covers (2017-03 .. 2017-08, the 28th):
/// the raw-fallback query kind answers them by scanning the lake.
std::vector<CivilDate> raw_only_days() {
  std::vector<CivilDate> out;
  for (MonthIndex m{2017, 3}; m <= MonthIndex{2017, 8}; m = m + 1) out.push_back(date(m, 28));
  return out;
}

/// The days right after the history that query_mix captures and appends.
std::vector<CivilDate> refresh_days(std::uint64_t seed) {
  std::vector<CivilDate> out;
  const int last = history_offset(seed) + 13;
  for (int i = 1; i <= kSessionQueries / kRefreshEvery; ++i) {
    out.push_back(date(MonthIndex{2017, 9}, last + i));
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t cores() { return std::max(1u, std::thread::hardware_concurrency()); }

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

std::uint64_t lake_bytes(const ew::storage::DataLake& lake, const std::vector<CivilDate>& days) {
  std::uint64_t n = 0;
  for (const auto d : days) n += lake.file_bytes(d);
  return n;
}

std::size_t count_in(const std::vector<CivilDate>& sorted, CivilDate from, CivilDate to) {
  return static_cast<std::size_t>(std::upper_bound(sorted.begin(), sorted.end(), to) -
                                  std::lower_bound(sorted.begin(), sorted.end(), from));
}

/// Per-layer metrics a workload does not exercise read 0, with the reason.
void absent(Context& c, std::initializer_list<const char*> names, const std::string& why) {
  for (const char* n : names) c.absent.push_back(std::string(n) + ": " + why);
}

// ---------------------------------------------------------- repetitions

struct Reps {
  std::vector<int> traced;  ///< run ids of the traced repetitions
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
};

/// Repeat `rep(run)` (returning its run_s) until --seconds have passed. A
/// traced run alternates traced and untraced repetitions, so it also
/// measures what tracing costs.
template <typename Rep>
Reps repeat(Context& c, Rep&& rep) {
  Reps out;
  const int min_runs = c.opt.trace ? 2 : 1;
  const auto t0 = Clock::now();
  for (int i = 0; i < min_runs || seconds_since(t0) < c.opt.seconds; ++i) {
    const bool traced = c.opt.trace && i % 2 == 0;
    c.tracer.set_enabled(traced);
    c.tracer.set_run(i);
    const double s = rep(i);
    if (traced) {
      out.traced.push_back(i);
      out.traced_s.push_back(s);
    } else {
      out.untraced_s.push_back(s);
    }
  }
  c.tracer.set_enabled(c.opt.trace);
  c.tracer.set_run(-1);
  return out;
}

/// Median over the traced repetitions of `f(run)`.
template <typename F>
double over_traced(const Reps& r, F&& f) {
  std::vector<double> v;
  for (const int id : r.traced) v.push_back(f(id));
  return median(v);
}

/// Set-up repeated kSetupRuns times into fresh directories; the last one
/// is kept. Returns the median wall time.
template <typename Setup>
double repeat_setup(Context& c, Setup&& setup) {
  std::vector<double> times;
  for (int k = 0; k < kSetupRuns; ++k) {
    const fs::path dir = c.dir / ("setup" + std::to_string(k));
    c.tracer.set_run(1000 + k);
    const auto t0 = Clock::now();
    setup(dir);
    times.push_back(seconds_since(t0));
    if (k + 1 < kSetupRuns) fs::remove_all(dir);
  }
  c.tracer.set_run(-1);
  return median(times);
}
constexpr int kLastSetupRun = 1000 + kSetupRuns - 1;

void report_tracing(Context& c, const Reps& r) {
  for (const char* layer : {"net", "probe", "storage", "analytics", "query"}) {
    c.layer.set(std::string(layer) + ".self_s",
                over_traced(r, [&](int id) { return c.tracer.self_by_layer(id)[layer]; }), "s");
  }
  std::vector<double> coverage;
  for (std::size_t k = 0; k < r.traced.size(); ++k) {
    const double cov = c.tracer.stage_sum(r.traced[k]) / r.traced_s[k];
    c.checks.expect(std::abs(cov - 1.0) <= kStageTolerance,
                    "stage spans cover " + std::to_string(cov) + " of run_s");
    coverage.push_back(cov);
  }
  const double traced = median(r.traced_s);
  const double untraced = median(r.untraced_s);
  c.layer.set("trace.run_s_traced", traced, "s");
  c.layer.set("trace.run_s_untraced", untraced, "s");
  c.layer.set("trace.overhead_ratio", traced / untraced - 1.0, "ratio");
  c.layer.set("trace.stage_coverage", median(coverage), "ratio");
}

// -------------------------------------------------------------- capture

struct Capture {
  std::vector<ew::flow::FlowRecord> records;
  ew::probe::Probe::Counters counters;
  std::uint64_t frames = 0;
  ew::core::Timestamp last_frame;  ///< serial captures only
  double occupancy = 0;            ///< mean sampled ring fill (traced sharded runs)
};

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

/// read_pcap → ShardedProbe (blocking ingest, nothing shed) → finish().
Capture capture_sharded(Context& c, const fs::path& pcap, std::size_t shards) {
  ew::probe::ShardedProbeConfig cfg;
  cfg.shards = shards;
  ew::probe::ShardedProbe probe{cfg};
  Capture out;
  const bool traced = c.tracer.enabled();
  std::int64_t ingest_ns = 0;
  std::uint64_t calls = 0;
  double fill = 0;
  std::uint64_t samples = 0;
  const int read = c.tracer.begin("net", "net::read_pcap");
  const auto stats = ew::net::read_pcap(pcap, [&](ew::net::Frame&& f) {
    if (!traced) {
      probe.ingest(std::move(f));
      return;
    }
    const auto t0 = Clock::now();
    probe.ingest(std::move(f));
    ingest_ns += ns_since(t0);
    if ((calls++ & 1023) == 0) {
      std::size_t depth = 0;
      for (std::size_t i = 0; i < shards; ++i) depth += probe.queue_depth(i);
      fill += static_cast<double>(depth) /
              static_cast<double>(shards * probe.queue_capacity());
      ++samples;
    }
  });
  c.tracer.end(read);
  c.tracer.add_accumulated(read, "probe", "probe::ShardedProbe::ingest", ingest_ns, calls);
  c.checks.expect(stats.has_value(), "read_pcap " + pcap.filename().string());
  out.frames = stats ? stats->frames : 0;
  {
    Tracer::Scope s(c.tracer, "probe", "probe::ShardedProbe::finish");
    out.records = probe.finish();
  }
  out.counters = probe.counters();
  out.occupancy = samples ? fill / static_cast<double>(samples) : 0;
  return out;
}

/// read_pcap → serial Probe, fed in batches through process(span).
Capture capture_serial(Context& c, const fs::path& pcap) {
  Capture out;
  ew::probe::Probe probe{{}, [&out](ew::flow::FlowRecord&& r) {
                           out.records.push_back(std::move(r));
                         }};
  std::vector<ew::net::Frame> batch;
  batch.reserve(kFrameBatch);
  const bool traced = c.tracer.enabled();
  std::int64_t process_ns = 0;
  std::uint64_t calls = 0;
  const auto flush = [&] {
    const auto t0 = traced ? Clock::now() : Clock::time_point{};
    probe.process(std::span<const ew::net::Frame>(batch));
    if (traced) process_ns += ns_since(t0);
    ++calls;
    batch.clear();
  };
  const int read = c.tracer.begin("net", "net::read_pcap");
  const auto stats = ew::net::read_pcap(pcap, [&](ew::net::Frame&& f) {
    out.last_frame = f.timestamp;
    batch.push_back(std::move(f));
    if (batch.size() == kFrameBatch) flush();
  });
  if (!batch.empty()) flush();
  c.tracer.end(read);
  c.tracer.add_accumulated(read, "probe", "probe::Probe::process", process_ns, calls);
  c.checks.expect(stats.has_value(), "read_pcap " + pcap.filename().string());
  out.frames = stats ? stats->frames : 0;
  {
    Tracer::Scope s(c.tracer, "probe", "probe::Probe::finish");
    probe.finish();
  }
  out.counters = probe.counters();
  return out;
}

/// Compare a serial capture with a sharded one of the same pcap, record
/// for record in creation order (ingest_seq). One difference is tolerated
/// and counted, not failed: a flow whose idle deadline passed before the
/// stream ended may be exported by one probe as an idle timeout and
/// flushed by the other as still open. FlowTable::advance sweeps its
/// expiry queue in arrival order and stops at the first flow not yet due,
/// so a UDP flow (120 s timeout) queued behind a TCP flow (300 s) waits
/// for it, and which flows queue behind which depends on how the flows are
/// split across tables. Every other difference fails the check.
std::uint64_t compare_captures(Context& c, Capture& serial,
                               const std::vector<ew::flow::FlowRecord>& sharded, CivilDate day) {
  using Reason = ew::flow::FlowCloseReason;
  std::stable_sort(serial.records.begin(), serial.records.end(),
                   [](const auto& a, const auto& b) { return a.ingest_seq < b.ingest_seq; });
  const ew::flow::FlowTableConfig timeouts;
  std::uint64_t close_diffs = 0;
  bool same = serial.records.size() == sharded.size();
  for (std::size_t i = 0; same && i < sharded.size(); ++i) {
    const auto& a = serial.records[i];
    const auto& b = sharded[i];
    same = a.ingest_seq == b.ingest_seq;
    if (!same || a.to_csv_row() == b.to_csv_row()) continue;
    auto relabelled = b;
    relabelled.close_reason = a.close_reason;
    const std::int64_t timeout = a.proto == ew::core::TransportProto::kTcp
                                     ? timeouts.tcp_idle_timeout_us
                                     : timeouts.udp_idle_timeout_us;
    const bool idled_out = a.last_packet + timeout <= serial.last_frame;
    const auto is_idle_label = [](Reason r) {
      return r == Reason::kIdleTimeout || r == Reason::kProbeFlush;
    };
    same = relabelled.to_csv_row() == a.to_csv_row() && idled_out &&
           is_idle_label(a.close_reason) && is_idle_label(b.close_reason);
    close_diffs += same;
  }
  c.checks.expect(same, "sharded probe output differs from serial probe on " + day.to_string());
  return close_diffs;
}

bool append(Context& c, ew::storage::DataLake& lake, CivilDate day,
            const std::vector<ew::flow::FlowRecord>& records) {
  Tracer::Scope s(c.tracer, "storage", "storage::DataLake::append");
  const auto r = lake.append(day, records);
  return c.checks.expect(r.has_value(), "append " + day.to_string());
}

/// Generate `days` of records (one pool task per day, a pool's width at a
/// time) and append them in day order. Returns the flows stored per day.
std::vector<std::uint64_t> fill_lake(Context& c, const ew::synth::WorkloadGenerator& gen,
                                     ew::storage::DataLake& lake,
                                     const std::vector<CivilDate>& days) {
  std::vector<std::uint64_t> flows;
  const std::size_t width = c.pool.size();
  std::vector<std::vector<ew::flow::FlowRecord>> chunk(width);
  for (std::size_t lo = 0; lo < days.size(); lo += width) {
    const std::size_t n = std::min(width, days.size() - lo);
    {
      Tracer::Scope s(c.tracer, "synth", "synth::WorkloadGenerator::day_records");
      c.pool.parallel_for(0, n, [&](std::size_t i) { chunk[i] = gen.day_records(days[lo + i]); });
    }
    for (std::size_t i = 0; i < n; ++i) {
      append(c, lake, days[lo + i], chunk[i]);
      flows.push_back(chunk[i].size());
    }
  }
  return flows;
}

/// Render each day's synth records to `dir/<day>.pcap`, days in parallel.
std::vector<fs::path> render_days(Context& c, const ew::synth::WorkloadGenerator& gen,
                                  const std::vector<CivilDate>& days, const fs::path& dir,
                                  std::uint64_t& frames) {
  std::vector<std::vector<ew::flow::FlowRecord>> records(days.size());
  {
    Tracer::Scope s(c.tracer, "synth", "synth::WorkloadGenerator::day_records");
    c.pool.parallel_for(0, days.size(),
                        [&](std::size_t i) { records[i] = gen.day_records(days[i]); });
  }
  std::vector<fs::path> paths;
  for (const auto d : days) paths.push_back(dir / (d.to_string() + ".pcap"));
  std::vector<std::uint64_t> written(days.size());
  {
    Tracer::Scope s(c.tracer, "synth", "render_day_pcap");
    c.pool.parallel_for(0, days.size(), [&](std::size_t i) {
      written[i] = render_day_pcap(records[i], paths[i], kResponseCap);
    });
  }
  frames = 0;
  for (const auto n : written) frames += n;
  return paths;
}

// ---------------------------------------------------------- correctness

struct ScanTally {
  double seconds = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
};

/// The conservation ledger, per day: flows the producer handed over = rows
/// a projected lake scan delivers = flows summed over the service rollup.
ScanTally check_ledger(Context& c, const ew::storage::DataLake& lake,
                       const ew::query::RollupStore& store, const std::vector<CivilDate>& days,
                       const std::vector<std::uint64_t>& produced, const char* producer) {
  ScanTally tally;
  const auto pred = ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);
  for (std::size_t i = 0; i < days.size(); ++i) {
    std::uint64_t rows = 0;
    const auto sink = [&](const ew::exec::RecordBatch& b) {
      rows += b.delivered_rows();
      ++tally.batches;
    };
    const auto t0 = Clock::now();
    const auto scan = lake.scan_day_batches(days[i], pred, sink);
    tally.seconds += seconds_since(t0);
    tally.rows += rows;
    std::uint64_t rolled = 0;
    const auto rollup =
        store.load(days[i], ew::query::Dimension::kService, ew::query::kColCounters);
    if (rollup) {
      for (const auto& [key, g] : rollup->groups) rolled += g.flows;
    }
    c.checks.expect(scan.ok() && rollup.has_value() && rows == produced[i] &&
                        scan.records_delivered == rows && rolled == rows,
                    "ledger " + days[i].to_string() + ": " + producer + " " +
                        std::to_string(produced[i]) + ", lake " + std::to_string(rows) +
                        ", rollup " + std::to_string(rolled));
  }
  return tally;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// query::volume_trend's documented tolerance against the full scan.
bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

// --------------------------------------------------------------- queries

enum Kind : int {
  kBytesByService,
  kVolumeTrend,
  kProtocolShares,
  kWeeklyRtt,
  kTopServices,
  kDistinctClients,
  kRawFallback,
  kKindCount,
};
constexpr const char* kKindNames[kKindCount] = {
    "bytes_by_service", "volume_trend", "protocol_shares", "weekly_rtt",
    "top_services",     "distinct_clients", "raw_fallback"};

struct Plan {
  Kind kind = kBytesByService;
  CivilDate from;
  CivilDate to;
  ServiceId service = ServiceId::kFacebook;
};

struct Answer {
  bool ok = false;
  double ms = 0;
  ew::query::QueryResult result;  ///< run_query kinds
  std::vector<ew::analytics::ProtocolShareRow> shares;
  std::vector<ew::analytics::VolumeTrendRow> trend;
};

/// Days the store and the lake can answer: rollup days, and lake days only
/// the raw fallback reaches.
struct Coverage {
  const std::vector<CivilDate>* rolled;
  const std::vector<CivilDate>* raw_only;
};

Answer run_plan(Context& c, const ew::query::RollupStore& store, const Plan& p,
                const Coverage& cov) {
  namespace q = ew::query;
  Answer a;
  const auto t0 = Clock::now();
  switch (p.kind) {
    case kBytesByService:
    case kDistinctClients:
    case kRawFallback: {
      q::QuerySpec spec;
      spec.from = p.from;
      spec.to = p.to;
      spec.dimension = q::Dimension::kService;
      spec.metric = p.kind == kDistinctClients ? q::Metric::kDistinctClients : q::Metric::kBytes;
      spec.bucket = p.kind == kDistinctClients ? q::TimeBucket::kMonth : q::TimeBucket::kTotal;
      if (p.kind == kRawFallback) {
        spec.raw_fallback = true;
        spec.group = static_cast<std::uint32_t>(p.service);
      }
      {
        Tracer::Scope s(c.tracer, "query", "query::run_query");
        a.result = q::run_query(store, spec, &c.pool);
      }
      const std::size_t raw = p.kind == kRawFallback ? count_in(*cov.raw_only, p.from, p.to) : 0;
      a.ok = a.result.ok() && a.result.days_scanned_raw == raw &&
             a.result.days_merged == count_in(*cov.rolled, p.from, p.to) + raw;
      break;
    }
    case kVolumeTrend: {
      Tracer::Scope s(c.tracer, "query", "query::volume_trend");
      a.trend = q::volume_trend(store, p.from, p.to, &c.pool);
      a.ok = !a.trend.empty();
      break;
    }
    case kProtocolShares: {
      Tracer::Scope s(c.tracer, "query", "query::protocol_shares");
      a.shares = q::protocol_shares(store, p.from, p.to, &c.pool);
      a.ok = !a.shares.empty();
      break;
    }
    case kWeeklyRtt: {
      Tracer::Scope s(c.tracer, "query", "query::weekly_rtt_quantile");
      a.ok = !q::weekly_rtt_quantile(store, p.service, p.from, p.to, 0.5, &c.pool).empty();
      break;
    }
    case kTopServices: {
      Tracer::Scope s(c.tracer, "query", "query::top_services_by_subscribers");
      a.ok = !q::top_services_by_subscribers(store, MonthIndex{p.from}, 10, &c.pool).empty();
      break;
    }
    case kKindCount:
      break;
  }
  a.ms = seconds_since(t0) * 1e3;
  c.checks.expect(a.ok, std::string("query ") + kKindNames[p.kind] + " " + p.from.to_string() +
                            ".." + p.to.to_string());
  return a;
}

using KindTimes = std::array<std::vector<double>, kKindCount>;

void report_kind_medians(Context& c, const KindTimes& times) {
  for (int k = 0; k < kKindCount; ++k) {
    const std::string name = std::string("query.") + kKindNames[k] + "_ms";
    if (times[k].empty()) {
      c.absent.push_back(name + ": no query of this kind on this workload");
    } else {
      c.layer.set(name, median(times[k]), "ms");
    }
  }
}

// ------------------------------------------------------- figure pipeline

struct FigureRefs {
  std::vector<ew::analytics::ProtocolShareRow> shares;
  std::vector<ew::analytics::VolumeTrendRow> trend;
};

std::vector<ew::analytics::DayAggregate> month_of(
    const std::vector<ew::analytics::DayAggregate>& aggs, MonthIndex m) {
  std::vector<ew::analytics::DayAggregate> out;
  for (const auto& a : aggs) {
    if (MonthIndex{a.date} == m) out.push_back(a);
  }
  return out;
}

/// Every Fig. 2–11 series over the day aggregates.
FigureRefs run_figures(Context& c, const std::vector<ew::analytics::DayAggregate>& aggs,
                       const ew::synth::Scenario& scenario) {
  namespace an = ew::analytics;
  Tracer::Scope stage(c.tracer, "stage", "figures");
  FigureRefs refs;
  std::size_t rows = 0;
  const auto fig = [&](const char* name, auto&& fn) {
    Tracer::Scope s(c.tracer, "analytics", name);
    rows += fn();
  };
  const an::RibProvider rib = [&](MonthIndex) -> const ew::asn::Rib& { return *scenario.rib; };
  // Fig. 4 compares April 2017 with April 2014; a window without them
  // compares its last month with its first.
  auto later = month_of(aggs, MonthIndex{2017, 4});
  auto earlier = month_of(aggs, MonthIndex{2014, 4});
  if (later.empty() || earlier.empty()) {
    later = month_of(aggs, MonthIndex{aggs.back().date});
    earlier = month_of(aggs, MonthIndex{aggs.front().date});
  }
  fig("analytics::daily_volume_distributions", [&] {
    const auto d = an::daily_volume_distributions(aggs);
    return d.down[0].size() + d.down[1].size();
  });
  fig("analytics::volume_trend", [&] {
    refs.trend = an::volume_trend(aggs);
    return refs.trend.size();
  });
  fig("analytics::hourly_ratio", [&] {
    (void)an::hourly_ratio(later, earlier);
    return std::size_t{1};
  });
  fig("analytics::service_matrix", [&] { return an::service_matrix(aggs).months.size(); });
  for (const auto id : {ServiceId::kYouTube, ServiceId::kNetflix, ServiceId::kPeerToPeer,
                        ServiceId::kFacebook, ServiceId::kInstagram, ServiceId::kWhatsApp}) {
    fig("analytics::service_trend", [&] { return an::service_trend(aggs, id).size(); });
  }
  fig("analytics::protocol_shares", [&] {
    refs.shares = an::protocol_shares(aggs);
    return refs.shares.size();
  });
  fig("analytics::daily_service_volume",
      [&] { return an::daily_service_volume(aggs, ServiceId::kFacebook).size(); });
  for (const auto id : {ServiceId::kFacebook, ServiceId::kYouTube, ServiceId::kGoogle}) {
    fig("analytics::rtt_distribution", [&] { return an::rtt_distribution(aggs, id).size(); });
  }
  fig("analytics::ip_lifecycle",
      [&] { return an::ip_lifecycle(aggs, ServiceId::kFacebook).size(); });
  for (const auto id : {ServiceId::kFacebook, ServiceId::kYouTube}) {
    fig("analytics::asn_breakdown", [&] { return an::asn_breakdown(aggs, id, rib).size(); });
  }
  fig("analytics::domain_shares",
      [&] { return an::domain_shares(aggs, ServiceId::kFacebook).size(); });
  c.checks.expect(rows > 0 && !refs.shares.empty() && !refs.trend.empty(),
                  "figures produced no rows");
  return refs;
}

/// Stage-one aggregation. With at least as many days as pool threads, one
/// task per day fills the pool behind a single barrier; with fewer, each
/// day's blocks fan out instead.
std::vector<ew::analytics::DayScanAggregate> aggregate_days(Context& c,
                                                            const ew::storage::DataLake& lake,
                                                            const std::vector<CivilDate>& days) {
  if (days.size() >= c.pool.size()) {
    Tracer::Scope s(c.tracer, "analytics", "analytics::aggregate_days_parallel");
    return ew::analytics::aggregate_days_parallel(lake, days, c.pool);
  }
  std::vector<ew::analytics::DayScanAggregate> out;
  for (const auto d : days) {
    Tracer::Scope s(c.tracer, "analytics", "analytics::aggregate_day_parallel");
    out.push_back(ew::analytics::aggregate_day_parallel(lake, d, c.pool));
  }
  return out;
}

struct FigureRun {
  ew::query::BuildReport build;
  std::uint64_t rows_aggregated = 0;
};

/// Sealed lake → rollups → stage-one aggregation → figures → rollup-figure
/// queries, each checked against the full-scan derivation. `times` gets
/// the rollup-figure query latencies.
FigureRun figures_from_lake(Context& c, const ew::storage::DataLake& lake,
                            ew::query::RollupStore& store, const std::vector<CivilDate>& days,
                            bool force, const ew::synth::Scenario& scenario, KindTimes& times) {
  FigureRun run;
  {
    Tracer::Scope stage(c.tracer, "stage", "rollups");
    Tracer::Scope s(c.tracer, "query", "query::RollupStore::build");
    ew::query::BuildOptions opts;
    opts.force = force;
    run.build = store.build(days, c.pool, opts);
  }
  c.checks.count(run.build.built + run.build.failed, run.build.failed, "rollup file builds");

  std::vector<ew::analytics::DayAggregate> aggs;
  aggs.reserve(days.size());
  {
    Tracer::Scope stage(c.tracer, "stage", "aggregate");
    for (auto& day : aggregate_days(c, lake, days)) {
      c.checks.expect(day.scan.ok(), "aggregate " + day.aggregate.date.to_string());
      run.rows_aggregated += day.scan.records_delivered;
      aggs.push_back(std::move(day.aggregate));
    }
  }
  const FigureRefs refs = run_figures(c, aggs, scenario);

  Tracer::Scope stage(c.tracer, "stage", "rollup figures");
  const Coverage cov{&days, &days};
  const CivilDate from = days.front();
  const CivilDate to = days.back();
  const auto timed = [&](Kind k, ServiceId service = ServiceId::kFacebook) {
    Answer a = run_plan(c, store, Plan{k, from, to, service}, cov);
    times[k].push_back(a.ms);
    return a;
  };
  // Fig. 8: bit-identical to the full scan.
  const Answer shares = timed(kProtocolShares);
  bool same = shares.shares.size() == refs.shares.size();
  for (std::size_t m = 0; same && m < refs.shares.size(); ++m) {
    same = shares.shares[m].month == refs.shares[m].month;
    for (std::size_t p = 0; same && p < refs.shares[m].share_pct.size(); ++p) {
      same = same_bits(shares.shares[m].share_pct[p], refs.shares[m].share_pct[p]);
    }
  }
  c.checks.expect(same, "query::protocol_shares differs from analytics::protocol_shares");
  // Fig. 3: equal within the documented floating-point tolerance.
  const Answer trend = timed(kVolumeTrend);
  bool close = trend.trend.size() == refs.trend.size();
  for (std::size_t m = 0; close && m < refs.trend.size(); ++m) {
    const auto& a = trend.trend[m];
    const auto& b = refs.trend[m];
    close = a.month == b.month;
    for (std::size_t t = 0; close && t < ew::analytics::kAccessTechCount; ++t) {
      close = near(a.down_mb[t], b.down_mb[t]) && near(a.up_mb[t], b.up_mb[t]) &&
              a.subscribers[t] == b.subscribers[t];
    }
  }
  c.checks.expect(close, "query::volume_trend differs from analytics::volume_trend");
  // Whole-range bytes by service: exactly the aggregates' sums.
  const Answer bytes = timed(kBytesByService);
  std::map<std::uint32_t, std::uint64_t> exact;
  for (const auto& agg : aggs) {
    for (const auto& [ip, sub] : agg.subscribers) {
      for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
        if (sub.per_service[s].total() > 0) {
          exact[static_cast<std::uint32_t>(s)] += sub.per_service[s].total();
        }
      }
    }
  }
  bool equal = !bytes.result.rows.empty();
  std::size_t nonzero = 0;
  for (const auto& row : bytes.result.rows) {
    equal = equal && row.value == static_cast<double>(exact[row.key]);
    nonzero += row.value > 0;
  }
  c.checks.expect(equal && nonzero == exact.size(),
                  "bytes_by_service differs from the aggregates' sums");
  timed(kWeeklyRtt);
  timed(kTopServices, ServiceId::kFacebook);
  return run;
}

// --------------------------------------------------------- side passes

/// A pass over the pcaps with a sink that does nothing: what reading
/// alone costs.
double pcap_read_s(Context& c, const std::vector<fs::path>& pcaps) {
  const auto t0 = Clock::now();
  for (const auto& p : pcaps) {
    const auto stats = ew::net::read_pcap(p, [](ew::net::Frame&&) {});
    c.checks.expect(stats.has_value(), "read_pcap " + p.filename().string());
  }
  return seconds_since(t0);
}

std::uint64_t lake_blocks(const ew::storage::DataLake& lake, const std::vector<CivilDate>& days) {
  std::uint64_t n = 0;
  for (const auto d : days) n += lake.fsck_day(d).blocks_ok;
  return n;
}

void report_scan(Context& c, const ScanTally& t) {
  c.layer.set("storage.scan_s", t.seconds, "s");
  c.layer.set("storage.scan_rows_per_s", static_cast<double>(t.rows) / t.seconds, "rows/s");
  c.layer.set("exec.batches", static_cast<double>(t.batches), "count");
  c.layer.set("exec.rows_per_batch",
              t.batches ? static_cast<double>(t.rows) / static_cast<double>(t.batches) : 0,
              "rows");
}

void report_lake(Context& c, const ew::storage::DataLake& lake, const std::vector<CivilDate>& days,
                 std::uint64_t flows) {
  c.layer.set("storage.bytes_per_flow",
              static_cast<double>(lake_bytes(lake, days)) / static_cast<double>(flows), "B");
  c.layer.set("storage.blocks", static_cast<double>(lake_blocks(lake, days)), "count");
}

void report_probe_counters(Context& c, const ew::probe::Probe::Counters& k) {
  c.layer.set("probe.records_exported", static_cast<double>(k.records_exported), "count");
  c.layer.set("probe.dns_named_ratio",
              k.records_exported ? static_cast<double>(k.records_named_by_dns) /
                                       static_cast<double>(k.records_exported)
                                 : 0,
              "ratio");
  c.layer.set("probe.decode_failures", static_cast<double>(k.decode_failures), "count");
}

void add_counters(ew::probe::Probe::Counters& a, const ew::probe::Probe::Counters& b) {
  a.frames += b.frames;
  a.decode_failures += b.decode_failures;
  a.records_exported += b.records_exported;
  a.records_named_by_dns += b.records_named_by_dns;
}

/// Aggregating every day from the lake against the rollup query that
/// answers the same range.
void report_vs_scan(Context& c, const ew::storage::DataLake& lake,
                    const std::vector<CivilDate>& days, const KindTimes& times) {
  const auto t0 = Clock::now();
  (void)aggregate_days(c, lake, days);
  const double scan_ms = seconds_since(t0) * 1e3;
  c.layer.set("query.bytes_by_service_vs_scan", scan_ms / median(times[kBytesByService]),
              "ratio");
}

}  // namespace

// ============================================================ peak_day

void run_peak_day(Context& c) {
  const std::vector<CivilDate> days = peak_days(c.opt.seed);
  const std::size_t shards = std::max<std::size_t>(1, cores() - 1);
  std::optional<ew::synth::Scenario> scenario;
  std::optional<ew::synth::WorkloadGenerator> gen;
  std::vector<fs::path> pcaps;
  std::uint64_t rendered = 0;
  const double setup_s = repeat_setup(c, [&](const fs::path& dir) {
    fs::create_directories(dir);
    scenario.emplace(ew::synth::build_paper_scenario(kScenarioSeed, kPeakScale));
    gen.emplace(*scenario);
    pcaps = render_days(c, *gen, days, dir, rendered);
  });

  std::vector<double> ingest_fps, figures_s, capture_s, occupancy;
  std::uint64_t frames = 0;
  std::uint64_t flows = 0;
  double bytes_per_flow = 0;
  ew::probe::Probe::Counters counters;
  std::vector<std::vector<ew::flow::FlowRecord>> sharded(days.size());
  FigureRun figs;
  KindTimes kinds;
  ScanTally tally;
  fs::path last_rep;

  const Reps reps = repeat(c, [&](int i) {
    if (!last_rep.empty()) fs::remove_all(last_rep);
    last_rep = c.dir / ("rep" + std::to_string(i));
    ew::storage::DataLake lake{last_rep / "lake"};
    lake.set_encode_pool(&c.pool);
    ew::query::RollupStore store{last_rep / "rollups", lake,
                                 ew::services::ServiceCatalog::standard(), scenario->rib.get()};
    std::vector<std::uint64_t> exported;
    frames = 0;
    counters = {};
    double capture = 0;
    double fill = 0;
    KindTimes rep_kinds;

    const int root = c.tracer.begin("bench", "run");
    const auto t0 = Clock::now();
    for (std::size_t d = 0; d < days.size(); ++d) {
      const auto tc = Clock::now();
      Capture cap;
      {
        Tracer::Scope stage(c.tracer, "stage", "capture");
        cap = capture_sharded(c, pcaps[d], shards);
      }
      capture += seconds_since(tc);
      frames += cap.frames;
      fill += cap.occupancy / static_cast<double>(days.size());
      add_counters(counters, cap.counters);
      exported.push_back(cap.records.size());
      {
        Tracer::Scope stage(c.tracer, "stage", "lake");
        append(c, lake, days[d], cap.records);
        sharded[d] = std::move(cap.records);  // frees the previous repetition's records
      }
    }
    const double ingest = seconds_since(t0);
    const auto tf = Clock::now();
    figs = figures_from_lake(c, lake, store, days, false, *scenario, rep_kinds);
    const double fig = seconds_since(tf);
    {
      Tracer::Scope stage(c.tracer, "stage", "queries");
      const std::vector<CivilDate> none;
      const Coverage cov{&days, &none};
      for (const Kind k : {kDistinctClients, kRawFallback}) {
        rep_kinds[k].push_back(
            run_plan(c, store, Plan{k, days.front(), days.back(), ServiceId::kFacebook},
                     cov)
                .ms);
      }
    }
    const double run_s = seconds_since(t0);
    c.tracer.end(root);
    c.tracer.set_run(-1);

    tally = check_ledger(c, lake, store, days, exported, "probe");
    flows = 0;
    for (const auto n : exported) flows += n;
    bytes_per_flow =
        static_cast<double>(lake_bytes(lake, days)) / static_cast<double>(flows);
    if (c.tracer.enabled()) {
      for (int k = 0; k < kKindCount; ++k) {
        kinds[k].insert(kinds[k].end(), rep_kinds[k].begin(), rep_kinds[k].end());
      }
      occupancy.push_back(fill);
    } else {
      capture_s.push_back(capture);
      ingest_fps.push_back(static_cast<double>(frames) / ingest);
      figures_s.push_back(fig);
    }
    return run_s;
  });

  c.e2e.set("setup_s", setup_s, "s");
  c.e2e.set("run_s", median(reps.untraced_s), "s");
  c.e2e.set("lake_bytes_per_flow", bytes_per_flow, "B");
  c.info.set("ingest_frames_per_s", median(ingest_fps), "frames/s");
  c.info.set("figures_s", median(figures_s), "s");
  if (!c.opt.trace) return;

  // ---- traced run: per-layer metrics and side passes
  report_tracing(c, reps);
  const double read_s = pcap_read_s(c, pcaps);
  c.layer.set("net.pcap_read_s", read_s, "s");
  c.layer.set("net.frames", static_cast<double>(frames), "count");
  const double ingest_s = over_traced(
      reps, [&](int id) { return c.tracer.total(id, "probe::ShardedProbe::ingest"); });
  const double finish_s = over_traced(
      reps, [&](int id) { return c.tracer.total(id, "probe::ShardedProbe::finish"); });
  c.layer.set("probe.ingest_s", ingest_s, "s");
  c.layer.set("probe.finish_s", finish_s, "s");
  c.layer.set("probe.queue_occupancy", median(occupancy), "ratio");
  c.layer.set("probe.frames_per_s", static_cast<double>(frames) / (ingest_s + finish_s),
              "frames/s");
  report_probe_counters(c, counters);

  // Serial Probe over the same pcaps: its output must equal the sharded
  // probe's, record for record in creation order.
  c.tracer.set_enabled(false);
  double serial_s = 0;
  std::uint64_t close_diffs = 0;
  for (std::size_t d = 0; d < days.size(); ++d) {
    const auto t0 = Clock::now();
    Capture serial = capture_serial(c, pcaps[d]);
    serial_s += seconds_since(t0);
    close_diffs += compare_captures(c, serial, sharded[d], days[d]);
  }
  c.tracer.set_enabled(true);
  c.layer.set("probe.close_reason_diffs", static_cast<double>(close_diffs), "count");
  const double serial_fps = static_cast<double>(frames) / serial_s;
  c.layer.set("probe.serial_s", serial_s, "s");
  c.layer.set("probe.serial_frames_per_s", serial_fps, "frames/s");
  c.layer.set("probe.sharded_vs_serial",
              static_cast<double>(frames) / median(capture_s) / serial_fps, "ratio");

  const double append_s = over_traced(
      reps, [&](int id) { return c.tracer.total(id, "storage::DataLake::append"); });
  c.layer.set("storage.append_s", append_s, "s");
  c.layer.set("storage.append_flows_per_s", static_cast<double>(flows) / append_s, "flows/s");
  ew::storage::DataLake lake{last_rep / "lake"};
  report_lake(c, lake, days, flows);
  report_scan(c, tally);
  absent(c, {"storage.blocks_pruned_ratio"}, "every day has rollups; no raw-fallback scan");

  const double agg_s = over_traced(
      reps, [&](int id) { return c.tracer.total(id, "aggregate"); });
  c.layer.set("analytics.aggregate_s", agg_s, "s");
  c.layer.set("analytics.aggregate_rows_per_s",
              static_cast<double>(figs.rows_aggregated) / agg_s, "rows/s");
  c.layer.set("analytics.figures_s",
              over_traced(reps, [&](int id) { return c.tracer.total(id, "figures"); }), "s");

  c.layer.set("query.build_s",
              over_traced(reps,
                          [&](int id) { return c.tracer.total(id, "query::RollupStore::build"); }),
              "s");
  c.layer.set("query.files_built", static_cast<double>(figs.build.built), "count");
  c.layer.set("query.files_reused", static_cast<double>(figs.build.reused), "count");
  c.layer.set("query.rollup_bytes", static_cast<double>(dir_bytes(last_rep / "rollups")), "B");
  report_kind_medians(c, kinds);
  c.layer.set("query.bytes_by_service_vs_scan", agg_s * 1e3 / median(kinds[kBytesByService]),
              "ratio");

  c.layer.set("synth.generate_s",
              c.tracer.total(kLastSetupRun, "synth::WorkloadGenerator::day_records"), "s");
  c.layer.set("synth.render_s", c.tracer.total(kLastSetupRun, "render_day_pcap"), "s");
  c.layer.set("synth.frames", static_cast<double>(rendered), "count");
}

// ========================================================== five_years

void run_five_years(Context& c) {
  const std::vector<CivilDate> days = history_days(c.opt.seed);
  std::optional<ew::synth::Scenario> scenario;
  std::optional<ew::synth::WorkloadGenerator> gen;
  std::optional<ew::storage::DataLake> lake;
  std::vector<std::uint64_t> stored;
  const double setup_s = repeat_setup(c, [&](const fs::path& dir) {
    scenario.emplace(ew::synth::build_paper_scenario(kScenarioSeed, kHistoryScale));
    gen.emplace(*scenario);
    lake.emplace(dir / "lake");
    lake->set_encode_pool(&c.pool);
    stored = fill_lake(c, *gen, *lake, days);
  });
  std::uint64_t flows = 0;
  for (const auto n : stored) flows += n;
  ew::query::RollupStore store{lake->root().parent_path() / "rollups", *lake,
                               ew::services::ServiceCatalog::standard(), scenario->rib.get()};

  FigureRun figs;
  KindTimes kinds;
  const Reps reps = repeat(c, [&](int) {
    KindTimes rep_kinds;
    const int root = c.tracer.begin("bench", "run");
    const auto t0 = Clock::now();
    figs = figures_from_lake(c, *lake, store, days, true, *scenario, rep_kinds);
    const double run_s = seconds_since(t0);
    c.tracer.end(root);
    if (c.tracer.enabled()) {
      for (int k = 0; k < kKindCount; ++k) {
        kinds[k].insert(kinds[k].end(), rep_kinds[k].begin(), rep_kinds[k].end());
      }
    }
    return run_s;
  });
  const ScanTally tally = check_ledger(c, *lake, store, days, stored, "synth");

  c.e2e.set("setup_s", setup_s, "s");
  c.e2e.set("run_s", median(reps.untraced_s), "s");
  c.e2e.set("lake_bytes_per_flow",
            static_cast<double>(lake_bytes(*lake, days)) / static_cast<double>(flows), "B");
  c.info.set("figures_s", median(reps.untraced_s), "s");
  if (!c.opt.trace) return;

  report_tracing(c, reps);
  const std::string no_capture = "no capture; the lake is sealed during set-up";
  absent(c,
         {"net.pcap_read_s", "net.frames", "probe.ingest_s", "probe.finish_s",
          "probe.queue_occupancy", "probe.frames_per_s", "probe.records_exported",
          "probe.dns_named_ratio", "probe.decode_failures", "probe.serial_s",
          "probe.serial_frames_per_s", "probe.sharded_vs_serial", "probe.close_reason_diffs",
          "storage.append_s",
          "storage.append_flows_per_s", "synth.render_s", "synth.frames"},
         no_capture);
  report_lake(c, *lake, days, flows);
  report_scan(c, tally);
  absent(c, {"storage.blocks_pruned_ratio"}, "every day has rollups; no raw-fallback scan");

  const double agg_s = over_traced(
      reps, [&](int id) { return c.tracer.total(id, "aggregate"); });
  c.layer.set("analytics.aggregate_s", agg_s, "s");
  c.layer.set("analytics.aggregate_rows_per_s",
              static_cast<double>(figs.rows_aggregated) / agg_s, "rows/s");
  c.layer.set("analytics.figures_s",
              over_traced(reps, [&](int id) { return c.tracer.total(id, "figures"); }), "s");
  c.layer.set("query.build_s",
              over_traced(reps,
                          [&](int id) { return c.tracer.total(id, "query::RollupStore::build"); }),
              "s");
  c.layer.set("query.files_built", static_cast<double>(figs.build.built), "count");
  c.layer.set("query.files_reused", static_cast<double>(figs.build.reused), "count");
  c.layer.set("query.rollup_bytes", static_cast<double>(dir_bytes(store.dir())), "B");
  report_kind_medians(c, kinds);
  c.layer.set("query.bytes_by_service_vs_scan", agg_s * 1e3 / median(kinds[kBytesByService]),
              "ratio");
  c.layer.set("synth.generate_s",
              c.tracer.total(kLastSetupRun, "synth::WorkloadGenerator::day_records"), "s");
}

// =========================================================== query_mix

namespace {

/// Relative weights of the query kinds in the closed-loop mix.
constexpr std::array<int, kKindCount> kMixWeights = {5, 20, 20, 15, 15, 15, 10};

/// Services every month of the window has traffic for.
constexpr ServiceId kRttServices[] = {ServiceId::kFacebook, ServiceId::kYouTube,
                                      ServiceId::kGoogle};

Plan draw(std::mt19937_64& rng, const std::vector<CivilDate>& history) {
  int total = 0;
  for (const int w : kMixWeights) total += w;
  int pick = static_cast<int>(rng() % static_cast<std::uint64_t>(total));
  Plan p;
  for (int k = 0; k < kKindCount; ++k) {
    if (pick < kMixWeights[k]) {
      p.kind = static_cast<Kind>(k);
      break;
    }
    pick -= kMixWeights[k];
  }
  const auto any_day = [&] { return history[rng() % history.size()]; };
  p.from = any_day();
  p.to = any_day();
  if (p.to < p.from) std::swap(p.from, p.to);
  switch (p.kind) {
    case kBytesByService:  // the whole history in one bucket
      p.from = history.front();
      p.to = history.back();
      break;
    case kRawFallback: {  // a month holding two rollup days and one raw-only day
      const MonthIndex m = MonthIndex{2017, 3} + static_cast<std::int32_t>(rng() % 6);
      p.from = date(m, 1);
      p.to = date(m, 28);
      p.service = static_cast<ServiceId>(rng() % ew::services::kNamedServiceCount);
      break;
    }
    case kWeeklyRtt:
      p.service = kRttServices[rng() % std::size(kRttServices)];
      break;
    default:
      break;
  }
  return p;
}

struct Refresh {
  CivilDate day;
  double seconds = 0;
  double capture_s = 0;
  double append_s = 0;
  double build_s = 0;
  std::uint64_t frames = 0;
  std::uint64_t exported = 0;
  ew::probe::Probe::Counters counters;
  ew::query::BuildReport build;
  std::vector<ew::query::QueryRow> raw_rows;
};

/// A new day arrives: capture its pcap with a serial Probe, append it,
/// answer it once by raw fallback, then build its rollups incrementally.
Refresh refresh(Context& c, ew::storage::DataLake& lake, ew::query::RollupStore& store,
                std::vector<CivilDate>& rolled, CivilDate day, const fs::path& pcap) {
  namespace q = ew::query;
  Tracer::Scope stage(c.tracer, "stage", "refresh");
  Refresh r;
  r.day = day;
  const auto t0 = Clock::now();
  Capture cap = capture_serial(c, pcap);
  r.capture_s = seconds_since(t0);
  r.frames = cap.frames;
  r.exported = cap.records.size();
  r.counters = cap.counters;
  const auto ta = Clock::now();
  append(c, lake, day, cap.records);
  r.append_s = seconds_since(ta);

  q::QuerySpec spec;
  spec.metric = q::Metric::kBytes;
  spec.dimension = q::Dimension::kService;
  spec.from = spec.to = day;
  spec.raw_fallback = true;
  q::QueryResult raw;
  {
    Tracer::Scope s(c.tracer, "query", "query::run_query");
    raw = q::run_query(store, spec, &c.pool);
  }
  c.checks.expect(raw.ok() && raw.days_scanned_raw == 1 && !raw.rows.empty(),
                  "raw-fallback answer for " + day.to_string());
  r.raw_rows = raw.rows;

  rolled.push_back(day);
  const auto tb = Clock::now();
  {
    Tracer::Scope s(c.tracer, "query", "query::RollupStore::build");
    r.build = store.build(rolled, c.pool);
  }
  r.build_s = seconds_since(tb);
  r.seconds = seconds_since(t0);
  c.checks.count(r.build.built + r.build.failed, r.build.failed, "rollup file builds");
  c.checks.expect(r.build.built == q::kDimensionCount &&
                      r.build.reused == q::kDimensionCount * (rolled.size() - 1),
                  "incremental build for " + day.to_string() + " rebuilt " +
                      std::to_string(r.build.built) + " files, expected " +
                      std::to_string(q::kDimensionCount));
  return r;
}

}  // namespace

void run_query_mix(Context& c) {
  namespace q = ew::query;
  const std::vector<CivilDate> history = history_days(c.opt.seed);
  const std::vector<CivilDate> raw_only = raw_only_days();
  const std::vector<CivilDate> arrivals = refresh_days(c.opt.seed);
  std::vector<CivilDate> lake_days = history;
  lake_days.insert(lake_days.end(), raw_only.begin(), raw_only.end());

  std::optional<ew::synth::Scenario> scenario;
  std::optional<ew::synth::WorkloadGenerator> gen;
  std::optional<ew::storage::DataLake> lake;
  std::optional<q::RollupStore> store;
  std::vector<fs::path> pcaps;
  std::vector<std::uint64_t> stored;
  std::uint64_t rendered = 0;
  const double setup_s = repeat_setup(c, [&](const fs::path& dir) {
    scenario.emplace(ew::synth::build_paper_scenario(kScenarioSeed, kHistoryScale));
    gen.emplace(*scenario);
    lake.emplace(dir / "lake");
    lake->set_encode_pool(&c.pool);
    stored = fill_lake(c, *gen, *lake, lake_days);
    store.emplace(dir / "rollups", *lake, ew::services::ServiceCatalog::standard(),
                  scenario->rib.get());
    q::BuildReport build;
    {
      Tracer::Scope s(c.tracer, "query", "query::RollupStore::build");
      build = store->build(history, c.pool);
    }
    c.checks.count(build.built + build.failed, build.failed, "rollup file builds");
    fs::create_directories(dir / "pcap");
    pcaps = render_days(c, *gen, arrivals, dir / "pcap", rendered);
  });
  std::uint64_t flows = 0;
  for (const auto n : stored) flows += n;
  const double bytes_per_flow =
      static_cast<double>(lake_bytes(*lake, lake_days)) / static_cast<double>(flows);

  std::vector<double> latencies;  // ms, untraced sessions
  std::vector<Refresh> refreshes;   // untraced sessions
  std::vector<Refresh> traced_refreshes;
  KindTimes kinds;  // traced sessions
  const Reps reps = repeat(c, [&](int session) {
    std::mt19937_64 rng{c.opt.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(session)};
    std::vector<CivilDate> rolled = history;
    std::vector<Refresh> done;
    std::vector<double> rep_ms;
    KindTimes rep_kinds;
    const Coverage cov{&rolled, &raw_only};
    const int root = c.tracer.begin("bench", "run");
    const auto t0 = Clock::now();
    for (int i = 0; i < kSessionQueries; ++i) {
      if (i % kRefreshEvery == kRefreshEvery / 2) {
        const std::size_t n = done.size();
        done.push_back(refresh(c, *lake, *store, rolled, arrivals[n], pcaps[n]));
      }
      const Plan plan = draw(rng, history);
      Tracer::Scope stage(c.tracer, "stage", "query");
      const Answer a = run_plan(c, *store, plan, cov);
      rep_ms.push_back(a.ms);
      rep_kinds[plan.kind].push_back(a.ms);
    }
    const double run_s = seconds_since(t0);
    c.tracer.end(root);
    c.tracer.set_run(-1);

    // Each refreshed day: the rollup answer equals the raw-fallback one,
    // and the ledger holds. Then the lake goes back to its set-up state.
    std::vector<CivilDate> refreshed;
    std::vector<std::uint64_t> exported;
    for (const auto& r : done) {
      q::QuerySpec spec;
      spec.metric = q::Metric::kBytes;
      spec.dimension = q::Dimension::kService;
      spec.from = spec.to = r.day;
      const auto rolled_answer = q::run_query(*store, spec, &c.pool);
      bool same = rolled_answer.ok() && rolled_answer.days_scanned_raw == 0 &&
                  rolled_answer.rows.size() == r.raw_rows.size();
      for (std::size_t k = 0; same && k < r.raw_rows.size(); ++k) {
        same = rolled_answer.rows[k].key == r.raw_rows[k].key &&
               rolled_answer.rows[k].value == r.raw_rows[k].value;
      }
      c.checks.expect(same, "rollup answer differs from raw fallback on " + r.day.to_string());
      refreshed.push_back(r.day);
      exported.push_back(r.exported);
    }
    check_ledger(c, *lake, *store, refreshed, exported, "probe");
    for (const auto d : refreshed) {
      c.checks.expect(lake->remove_day(d).has_value(), "remove " + d.to_string());
      for (std::size_t dim = 0; dim < q::kDimensionCount; ++dim) {
        fs::remove(store->rollup_path(d, static_cast<q::Dimension>(dim)));
      }
    }

    if (c.tracer.enabled()) {
      for (int k = 0; k < kKindCount; ++k) {
        kinds[k].insert(kinds[k].end(), rep_kinds[k].begin(), rep_kinds[k].end());
      }
      traced_refreshes.insert(traced_refreshes.end(), done.begin(), done.end());
    } else {
      latencies.insert(latencies.end(), rep_ms.begin(), rep_ms.end());
      refreshes.insert(refreshes.end(), done.begin(), done.end());
    }
    return run_s;
  });

  std::vector<double> refresh_s, refresh_fps;
  for (const auto& r : refreshes) {
    refresh_s.push_back(r.seconds);
    refresh_fps.push_back(static_cast<double>(r.frames) / r.capture_s);
  }
  c.e2e.set("setup_s", setup_s, "s");
  c.e2e.set("run_s", median(reps.untraced_s), "s");
  c.e2e.set("lake_bytes_per_flow", bytes_per_flow, "B");
  c.info.set("query_p50_ms", percentile(latencies, 0.50), "ms");
  c.info.set("query_p99_ms", percentile(latencies, 0.99), "ms");
  c.info.set("query_samples", static_cast<double>(latencies.size()), "count");
  c.info.set("refresh_s", median(refresh_s), "s");
  c.info.set("refresh_capture_frames_per_s", median(refresh_fps), "frames/s");
  if (!c.opt.trace) return;

  report_tracing(c, reps);
  const auto per_refresh = [&](auto&& f) {
    std::vector<double> v;
    for (const auto& r : traced_refreshes) v.push_back(f(r));
    return median(v);
  };
  c.layer.set("net.pcap_read_s", pcap_read_s(c, pcaps) / static_cast<double>(pcaps.size()),
              "s");
  c.layer.set("net.frames", per_refresh([](const Refresh& r) { return double(r.frames); }),
              "count");
  const std::string no_sharded = "refreshes capture with a serial Probe";
  absent(c,
         {"probe.ingest_s", "probe.finish_s", "probe.queue_occupancy", "probe.frames_per_s",
          "probe.sharded_vs_serial", "probe.close_reason_diffs"},
         no_sharded);
  c.layer.set("probe.serial_s", per_refresh([](const Refresh& r) { return r.capture_s; }), "s");
  c.layer.set("probe.serial_frames_per_s",
              per_refresh([](const Refresh& r) { return double(r.frames) / r.capture_s; }),
              "frames/s");
  ew::probe::Probe::Counters counters;
  for (const auto& r : traced_refreshes) add_counters(counters, r.counters);
  report_probe_counters(c, counters);

  c.layer.set("storage.append_s", per_refresh([](const Refresh& r) { return r.append_s; }),
              "s");
  c.layer.set("storage.append_flows_per_s",
              per_refresh([](const Refresh& r) { return double(r.exported) / r.append_s; }),
              "flows/s");
  report_lake(c, *lake, lake_days, flows);
  report_scan(c, check_ledger(c, *lake, *store, history,
                              std::vector<std::uint64_t>(stored.begin(),
                                                         stored.begin() + history.size()),
                              "synth"));
  // What the raw fallback's service predicate prunes on the raw-only days.
  std::uint64_t pruned = 0;
  std::uint64_t blocks = 0;
  for (const auto d : raw_only) {
    const std::uint64_t day_blocks = lake->fsck_day(d).blocks_ok;
    for (std::size_t s = 0; s < ew::services::kNamedServiceCount; ++s) {
      auto pred = ew::storage::ScanPredicate::for_service(static_cast<ServiceId>(s));
      pred.fields = ew::storage::scan_fields::kUpBytes | ew::storage::scan_fields::kDownBytes |
                    ew::storage::scan_fields::kL7 | ew::storage::scan_fields::kServerName;
      const auto scan = lake->scan_day_batches(d, pred, [](const ew::exec::RecordBatch&) {});
      pruned += scan.blocks_pruned;
      blocks += day_blocks;
    }
  }
  c.layer.set("storage.blocks_pruned_ratio",
              static_cast<double>(pruned) / static_cast<double>(blocks), "ratio");
  absent(c, {"analytics.aggregate_s", "analytics.aggregate_rows_per_s", "analytics.figures_s"},
         "no stage-one aggregation in the timed phase");

  c.layer.set("query.build_s", per_refresh([](const Refresh& r) { return r.build_s; }), "s");
  c.layer.set("query.files_built",
              per_refresh([](const Refresh& r) { return double(r.build.built); }), "count");
  c.layer.set("query.files_reused",
              per_refresh([](const Refresh& r) { return double(r.build.reused); }), "count");
  c.layer.set("query.rollup_bytes", static_cast<double>(dir_bytes(store->dir())), "B");
  report_kind_medians(c, kinds);
  report_vs_scan(c, *lake, history, kinds);
  c.layer.set("synth.generate_s",
              c.tracer.total(kLastSetupRun, "synth::WorkloadGenerator::day_records"), "s");
  c.layer.set("synth.render_s", c.tracer.total(kLastSetupRun, "render_day_pcap"), "s");
  c.layer.set("synth.frames", static_cast<double>(rendered), "count");
}

}  // namespace pipebench
