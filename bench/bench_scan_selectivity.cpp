// Columnar scan-path harness (run by scripts/bench.sh): (a) times the
// pipeline's full-day scan, every field and projected to the stage-one
// aggregation working set, and (b) checks that a selective scan — one
// service, a one-hour window — skips >= 90% of the blocks on zone maps
// alone, without decompressing a single pruned segment.
//
// One time-sorted record stream is written to a lake once; two full-day
// batch scans (every field, projected to the day-aggregate fields) and the
// predicate scan are then timed, each summing byte counters per batch. Delivered-record counts and a byte
// checksum over projected counters are checked against the in-memory
// records the lake was written from, filtered by ScanPredicate::matches
// (a fast scan that returns a different answer is a bug, not a win), and
// both gates are hard exit-code assertions so even the CI smoke run keeps
// them honest.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/parallel.hpp"
#include "core/time.hpp"
#include "exec/record_batch.hpp"
#include "storage/columnar.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double best_of(int repeats, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int day_count = argc > 1 ? std::atoi(argv[1]) : 8;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const auto out_path =
      argc > 3 ? std::string(argv[3]) : std::string("BENCH_scan_selectivity.json");

  // One big multi-block "day" file: several synthetic days' records merged
  // and time-sorted, so blocks are time-clustered and zone maps can prune.
  const auto scenario = ew::synth::build_paper_scenario(/*seed=*/7, /*scale=*/0.2);
  const ew::synth::WorkloadGenerator gen{scenario};
  const ew::core::CivilDate base{2015, 6, 1};
  std::vector<ew::flow::FlowRecord> records;
  for (int d = 0; d < day_count; ++d) {
    const auto z = ew::core::days_from_civil(base) + d;
    auto day_recs = gen.day_records(ew::core::civil_from_days(z));
    records.insert(records.end(), std::make_move_iterator(day_recs.begin()),
                   std::make_move_iterator(day_recs.end()));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const ew::flow::FlowRecord& a, const ew::flow::FlowRecord& b) {
                     return a.first_packet < b.first_packet;
                   });

  const auto dir = fs::temp_directory_path() / "ew_bench_scan_selectivity";
  fs::remove_all(dir);
  ew::storage::DataLake lake{dir};
  if (!lake.append(base, records)) {
    std::fprintf(stderr, "lake append failed\n");
    return 1;
  }
  const std::size_t blocks = lake.load_day_blocks(base).blocks().size();
  std::printf("scan selectivity bench: %zu records, %zu blocks, %d repeats\n", records.size(),
              blocks, repeats);

  // The selective question: one service's traffic in one hour of one day.
  // (YouTube is present across the whole paper-scenario service evolution.)
  ew::storage::ScanPredicate pred =
      ew::storage::ScanPredicate::for_service(ew::services::ServiceId::kYouTube);
  const auto mid = ew::core::civil_from_days(ew::core::days_from_civil(base) + day_count / 2);
  pred.time_min_us = ew::core::Timestamp::from_date_time(mid, 21).micros();
  pred.time_max_us = ew::core::Timestamp::from_date_time(mid, 22).micros() - 1;
  // The pipeline's full-day scan: unrestricted rows, stage-one columns only.
  const ew::storage::ScanPredicate proj =
      ew::storage::ScanPredicate::project(ew::analytics::kDayAggregateScanFields);

  // The reference answers, straight from the records the lake was written from.
  std::uint64_t ref_chk = 0, ref_sel = 0, ref_sel_chk = 0;
  for (const auto& r : records) {
    ref_chk += r.up.bytes + r.down.bytes;
    if (pred.matches(r)) {
      ++ref_sel;
      ref_sel_chk += r.up.bytes + r.down.bytes;
    }
  }

  std::uint64_t full = 0, full_proj = 0, sel = 0;
  std::uint64_t chk = 0, chk_proj = 0, chk_sel = 0;
  ew::storage::ScanResult sel_scan;
  std::uint64_t sum = 0;
  const auto count = [&](const ew::exec::RecordBatch& b) {
    b.for_each_row([&](std::size_t i) { sum += b.up_bytes[i] + b.dn_bytes[i]; });
  };

  const double full_s = best_of(repeats, [&] {
    sum = 0;
    full = lake.scan_day_batches(base, count).records_delivered;
    chk = sum;
  });
  const double proj_s = best_of(repeats, [&] {
    sum = 0;
    full_proj = lake.scan_day_batches(base, proj, count).records_delivered;
    chk_proj = sum;
  });
  const double sel_s = best_of(repeats, [&] {
    sum = 0;
    sel_scan = lake.scan_day_batches(base, pred, count);
    sel = sel_scan.records_delivered;
    chk_sel = sum;
  });

  const double skip_ratio = blocks > 0 ? double(sel_scan.blocks_pruned) / double(blocks) : 0;
  std::printf("  full scan:      %8.3f s  (%.2fM rec/s)\n", full_s, full / full_s / 1e6);
  std::printf("  projected scan: %8.3f s  (%.2fM rec/s, day-aggregate columns)\n", proj_s,
              full_proj / proj_s / 1e6);
  std::printf("  selective:      %8.3f s  (pushdown, %llu rows, %u/%zu blocks pruned "
              "= %.1f%% skipped)\n",
              sel_s, static_cast<unsigned long long>(sel), sel_scan.blocks_pruned, blocks,
              100 * skip_ratio);

  // Correctness gate — a fast scan with a different answer is a bug. The
  // projected scan must deliver every record with the same byte counters
  // (its mask covers the checksum's fields), not merely the same count.
  const std::uint64_t n = records.size();
  if (full != n || full_proj != n || sel != ref_sel || ref_sel == 0 || chk != ref_chk ||
      chk_proj != ref_chk || chk_sel != ref_sel_chk) {
    std::fprintf(stderr, "FAIL: delivered-record mismatch against the input records (full "
                 "%llu/%llu/%llu, selective %llu/%llu, checksums %llu/%llu/%llu, selective "
                 "checksum %llu/%llu)\n",
                 static_cast<unsigned long long>(n), static_cast<unsigned long long>(full),
                 static_cast<unsigned long long>(full_proj),
                 static_cast<unsigned long long>(ref_sel), static_cast<unsigned long long>(sel),
                 static_cast<unsigned long long>(ref_chk), static_cast<unsigned long long>(chk),
                 static_cast<unsigned long long>(chk_proj),
                 static_cast<unsigned long long>(ref_sel_chk),
                 static_cast<unsigned long long>(chk_sel));
    return 1;
  }
  // The zone-map gate: the one-hour predicate must prune >= 90% of blocks.
  if (skip_ratio < 0.9) {
    std::fprintf(stderr, "FAIL: selective scan skipped only %.1f%% of blocks (need >= 90%%)\n",
                 100 * skip_ratio);
    return 1;
  }

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"scan_selectivity\",\n"
                "  \"records\": %zu,\n"
                "  \"blocks\": %zu,\n"
                "  \"repeats\": %d,\n"
                "  \"full_scan_s\": %.6f,\n"
                "  \"projected_scan_s\": %.6f,\n"
                "  \"selective_s\": %.6f,\n"
                "  \"selective_rows\": %llu,\n"
                "  \"blocks_pruned\": %u,\n"
                "  \"skip_ratio\": %.4f\n"
                "}\n",
                records.size(), blocks, repeats, full_s, proj_s, sel_s,
                static_cast<unsigned long long>(sel), sel_scan.blocks_pruned, skip_ratio);
  bool wrote = false;
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(buf, f);
    std::fclose(f);
    wrote = true;
    std::printf("wrote %s\n", out_path.c_str());
  }
  fs::remove_all(dir);
  return wrote ? 0 : 1;
}
