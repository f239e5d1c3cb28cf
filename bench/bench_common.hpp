// Shared helpers for the figure-reproduction benches. Each bench binary
// first prints its figure's reproduction table (paper-reported value vs
// measured value on the synthetic scenario), then runs google-benchmark
// timings of the underlying computation.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analytics/day_aggregate.hpp"
#include "core/time.hpp"
#include "synth/generator.hpp"

namespace bench_common {

namespace ew = edgewatch;

/// One process-wide generator so setup cost is paid once per binary.
inline const ew::synth::WorkloadGenerator& generator() {
  static const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(/*seed=*/42)};
  return gen;
}

/// Representative days of a month (spread across it, away from holidays).
inline std::vector<ew::core::CivilDate> sample_days(ew::core::MonthIndex month,
                                                    int days_per_month = 2) {
  static constexpr int kDays[] = {10, 20, 5, 15, 25};
  std::vector<ew::core::CivilDate> out;
  const int in_month = ew::core::days_in_month(month.year(), month.month());
  for (int i = 0; i < days_per_month && i < 5; ++i) {
    const int d = kDays[i] <= in_month ? kDays[i] : in_month;
    out.push_back({month.year(), static_cast<std::uint8_t>(month.month()),
                   static_cast<std::uint8_t>(d)});
  }
  return out;
}

/// Aggregates for N sample days of every month in [from, to].
inline std::vector<ew::analytics::DayAggregate> monthly_aggregates(
    ew::core::MonthIndex from, ew::core::MonthIndex to, int days_per_month = 2) {
  std::vector<ew::analytics::DayAggregate> out;
  for (auto m = from; m <= to; m = m + 1) {
    for (const auto day : sample_days(m, days_per_month)) {
      out.push_back(generator().day_aggregate(day));
    }
  }
  return out;
}

/// Aggregates for N sample days of one month.
inline std::vector<ew::analytics::DayAggregate> month_aggregates(ew::core::MonthIndex month,
                                                                 int days_per_month = 4) {
  std::vector<ew::analytics::DayAggregate> out;
  for (const auto day : sample_days(month, days_per_month)) {
    out.push_back(generator().day_aggregate(day));
  }
  return out;
}

inline void header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

/// "paper says X, we measured Y" row.
inline void compare(const char* metric, const char* paper, double measured,
                    const char* unit = "") {
  std::printf("  %-52s paper: %-14s measured: %.2f%s\n", metric, paper, measured, unit);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// The host's CPU model (first "model name" of /proc/cpuinfo), for the host
/// stamp of a bench's JSON entry; "unknown" where that file is absent.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace bench_common
