// Spans recorded by the benchmark around its calls into the layers'
// public functions. Kept in memory, analysed and written once at the end.
// A disabled tracer reads no clock and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Traced runs alternate traced and untraced repetitions.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Spans opened from here on belong to run `run` (one timed repetition,
  /// or -1 for set-up and side passes).
  void set_run(int run) noexcept { run_ = run; }

  /// Open a span under the innermost open one; returns its id (-1 when
  /// disabled). Spans close in reverse order of opening.
  int begin(std::string_view layer, std::string_view name);
  void end(int id);

  /// Record a child of `parent` whose duration is time accumulated over
  /// `calls` short calls (per-frame work inside a pcap callback). It is
  /// drawn at the parent's start.
  void add_accumulated(int parent, std::string_view layer, std::string_view name,
                       std::int64_t ns, std::uint64_t calls);

  class Scope {
   public:
    Scope(Tracer& t, std::string_view layer, std::string_view name)
        : tracer_(t), id_(t.begin(layer, name)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = -1;
    std::uint64_t calls = 1;  ///< >1 for accumulated spans
  };
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Seconds spent in spans called `name` during `run`.
  [[nodiscard]] double total(int run, std::string_view name) const;
  /// Self time (span minus its children) per layer during `run`.
  [[nodiscard]] std::map<std::string, double> self_by_layer(int run) const;
  /// Sum of the durations of the root span's direct children in `run`.
  [[nodiscard]] double stage_sum(int run) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). `metadata`
  /// goes into the top-level "metadata" object as strings.
  void write_chrome(const std::filesystem::path& path,
                    const std::map<std::string, std::string>& metadata) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  int run_ = -1;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace pipebench
