// The three workloads and what they share: options, the isolated run
// directory, the pool, the tracer, the correctness ledger and the metrics
// each run reports.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "trace.hpp"

namespace pipebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;    ///< parent of the per-process run directory
  std::filesystem::path trace_out;  ///< Chrome trace file (traced runs)
  std::string git_rev = "unknown";
};

/// Metrics in the order they were set.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed: lake appends, rollup file builds,
/// queries and correctness checks. Every failure is kept with its reason.
class Checks {
 public:
  /// Count one operation; returns `ok`.
  bool expect(bool ok, const std::string& what);
  /// Count `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Context {
  Context(Options o, std::filesystem::path run_dir, std::size_t threads)
      : opt(std::move(o)), dir(std::move(run_dir)), pool(threads), tracer(opt.trace) {}

  Options opt;
  std::filesystem::path dir;  ///< this process's own directory, removed on exit
  edgewatch::core::ThreadPool pool;
  Tracer tracer;
  Checks checks;
  Metrics e2e;    ///< untraced runs: end-to-end metrics
  Metrics layer;  ///< traced runs: per-layer metrics
  /// Workload-specific end-to-end figures, printed beside the result.
  Metrics info;
  /// Why a per-layer metric reads 0 on this workload.
  std::vector<std::string> absent;
};

void run_peak_day(Context& c);
void run_five_years(Context& c);
void run_query_mix(Context& c);

}  // namespace pipebench
