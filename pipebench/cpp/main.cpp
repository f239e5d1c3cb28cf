// pipebench: one end-to-end run of the edgewatch pipeline (synth → pcap →
// probe → lake → rollups → figures → queries) on one named workload.
//
//   pipebench --workload peak_day|five_years|query_mix --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]
//             [--git-rev REV]
//
// Prints a stamp of the host and build, the metrics in readable form, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, and the spans go to a Chrome trace file.
// Exits 1 when any operation or correctness check failed, 2 on bad usage.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using pipebench::Context;
using pipebench::Options;

/// End-to-end metrics every workload reports (BENCHMARK.json end_to_end).
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"lake_bytes_per_flow", "B"},
};

/// Per-layer metrics of a traced run (BENCHMARK.json per_layer). A
/// workload that does not exercise one reports 0 and says why.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.pcap_read_s", "s"},
    {"net.frames", "count"},
    {"net.self_s", "s"},
    {"probe.ingest_s", "s"},
    {"probe.finish_s", "s"},
    {"probe.queue_occupancy", "ratio"},
    {"probe.frames_per_s", "frames/s"},
    {"probe.records_exported", "count"},
    {"probe.dns_named_ratio", "ratio"},
    {"probe.decode_failures", "count"},
    {"probe.serial_s", "s"},
    {"probe.serial_frames_per_s", "frames/s"},
    {"probe.sharded_vs_serial", "ratio"},
    {"probe.close_reason_diffs", "count"},
    {"probe.self_s", "s"},
    {"storage.append_s", "s"},
    {"storage.append_flows_per_s", "flows/s"},
    {"storage.bytes_per_flow", "B"},
    {"storage.blocks", "count"},
    {"storage.scan_s", "s"},
    {"storage.scan_rows_per_s", "rows/s"},
    {"storage.blocks_pruned_ratio", "ratio"},
    {"storage.self_s", "s"},
    {"exec.batches", "count"},
    {"exec.rows_per_batch", "rows"},
    {"analytics.aggregate_s", "s"},
    {"analytics.aggregate_rows_per_s", "rows/s"},
    {"analytics.figures_s", "s"},
    {"analytics.self_s", "s"},
    {"query.build_s", "s"},
    {"query.files_built", "count"},
    {"query.files_reused", "count"},
    {"query.rollup_bytes", "B"},
    {"query.bytes_by_service_ms", "ms"},
    {"query.volume_trend_ms", "ms"},
    {"query.protocol_shares_ms", "ms"},
    {"query.weekly_rtt_ms", "ms"},
    {"query.top_services_ms", "ms"},
    {"query.distinct_clients_ms", "ms"},
    {"query.raw_fallback_ms", "ms"},
    {"query.bytes_by_service_vs_scan", "ratio"},
    {"query.self_s", "s"},
    {"synth.generate_s", "s"},
    {"synth.render_s", "s"},
    {"synth.frames", "count"},
    {"trace.run_s_traced", "s"},
    {"trace.run_s_untraced", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.stage_coverage", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\n"
               "usage: pipebench --workload peak_day|five_years|query_mix --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE] [--git-rev REV]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.workdir = ".bench_build/runs";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-rev") {
      o.git_rev = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload != "peak_day" && o.workload != "five_years" && o.workload != "query_mix") {
    usage("unknown workload");
  }
  if (o.seconds < 1) usage("--seconds must be at least 1");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// This process's own directory: pid plus a random suffix, removed when
/// the guard goes out of scope (also when a workload throws).
class RunDir {
 public:
  explicit RunDir(const fs::path& parent) {
    std::random_device rd;
    char name[64];
    std::snprintf(name, sizeof name, "%d-%08x%08x", static_cast<int>(::getpid()), rd(), rd());
    path_ = parent / name;
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Why a per-layer metric is absent on this workload, or "" when it is not.
std::string absence(const Context& c, const std::string& name) {
  for (const auto& why : c.absent) {
    if (why.rfind(name + ": ", 0) == 0) return why.substr(name.size() + 2);
  }
  return "";
}

/// Print the readable report and return the result line. A wanted metric
/// that is neither measured nor explained, or not finite, is a failure.
std::string report(Context& c, const std::map<std::string, std::string>& stamp) {
  const bool traced = c.opt.trace;
  std::map<std::string, double> measured;
  for (const auto& e : (traced ? c.layer : c.e2e).entries()) measured[e.name] = e.value;
  std::string metrics;
  for (const auto& [name, unit] : traced ? kPerLayer : kEndToEnd) {
    const auto it = measured.find(name);
    double value = it == measured.end() ? 0 : it->second;
    if (it == measured.end() && absence(c, name).empty()) {
      c.checks.expect(false, std::string("metric ") + name + " was not measured");
    }
    if (!std::isfinite(value)) {
      c.checks.expect(false, std::string("metric ") + name + " is not finite");
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + unit + "\"}";
  }

  for (const auto& e : c.e2e.entries()) {
    std::printf("e2e   %-34s %16.6g %s%s\n", e.name.c_str(), e.value, e.unit.c_str(),
                traced ? "  (traced run: not reported)" : "");
  }
  for (const auto& e : c.info.entries()) {
    std::printf("info  %-34s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  const auto attempted = c.checks.attempted();
  const auto failed = c.checks.failed();
  std::printf("info  %-34s %16.6g ratio (ops=%llu, failed=%llu)\n", "error_rate",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  if (traced) {
    std::string layer;
    for (const auto& [name, unit] : kPerLayer) {
      const std::string n = name;
      if (n.substr(0, n.find('.')) != layer) {
        layer = n.substr(0, n.find('.'));
        std::printf("layer %s\n", layer.c_str());
      }
      const std::string why = absence(c, n);
      std::printf("      %-34s %16.6g %s%s%s\n", name, measured.count(n) ? measured[n] : 0.0,
                  unit, why.empty() ? "" : "  absent: ", why.c_str());
    }
    fs::path out = c.opt.trace_out;
    if (out.empty()) {
      out = c.opt.workdir / ("trace-" + c.opt.workload + "-seed" + std::to_string(c.opt.seed) +
                             "-" + std::to_string(::getpid()) + ".json");
    }
    c.tracer.write_chrome(out, stamp);
    std::printf("# chrome trace: %s (%zu spans)\n", out.c_str(), c.tracer.spans().size());
  }
  for (const auto& f : c.checks.failures()) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  return std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::map<std::string, std::string> stamp = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", std::to_string(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(threads)},
      {"cpu", cpu_model()},
      {"compiler", PIPEBENCH_COMPILER},
      {"build_type", PIPEBENCH_BUILD_TYPE},
      {"ew_obs", PIPEBENCH_OBS ? "ON" : "OFF"},
      {"git_rev", opt.git_rev},
  };
  std::printf("# pipebench");
  for (const auto& [k, v] : stamp) std::printf(" %s=\"%s\"", k.c_str(), v.c_str());
  std::printf("\n");
  std::fflush(stdout);

  int status = 0;
  std::string result;
  try {
    RunDir run_dir{opt.workdir};
    Context c{opt, run_dir.path(), threads};
    if (opt.workload == "peak_day") {
      pipebench::run_peak_day(c);
    } else if (opt.workload == "five_years") {
      pipebench::run_five_years(c);
    } else {
      pipebench::run_query_mix(c);
    }

    result = report(c, stamp);
    status = c.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  return status;
}
