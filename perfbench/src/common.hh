// Shared plumbing of the perfbench harness: steady_clock stamps, the
// in-memory span store behind the traced run, quantiles, and the result
// line the harness prints last.
//
// Every latency and percentile the harness reports comes from its own
// steady_clock stamps at nanosecond resolution; the obs registry is read
// only for exact counts and sum / count means (its histograms are log2
// buckets and cannot resolve a 2x change).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) noexcept {
  return static_cast<double>(ns) / 1e6;
}
[[nodiscard]] inline double ns_to_us(std::int64_t ns) noexcept {
  return static_cast<double>(ns) / 1e3;
}

/// Nearest-rank q-quantile (q in [0, 1]); sorts `values`.  0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the checks it made and its metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed output check; any entry makes `correct` false.
  std::vector<std::string> errors;
  /// Human-readable context printed before the result line (sample
  /// counts beside each percentile, check summaries).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const noexcept { return errors.empty(); }
};

/// Prints the notes, then the result as one JSON line (always the last
/// line of stdout).  Non-finite metric values are reported as check
/// failures and printed as 0 so the line stays valid JSON.
void print_result(RunResult& result);

/// One timed call the harness made.  An aggregate span folds `count`
/// calls of one name under one parent -- per-dispatch calls would
/// otherwise need millions of records -- with `total_ns` their summed
/// time and [start_ns, end_ns] the first start and last end.
struct Span {
  static constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t id = 0;  ///< cell index or ticket id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// Totals of one span name: self time is a span's total minus the total
/// of its direct children.
struct NameTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// In-memory span store.  Not thread-safe: a thread that makes timed
/// calls beside the recording thread (serve-backlog's poller) keeps its
/// times in CallTotals, flushed after it is joined.  Written out once,
/// at the end.
class Trace {
 public:
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  /// Opens a span starting now; close() stamps its end.
  [[nodiscard]] std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                                   std::uint64_t id);
  void close(std::uint32_t span);
  /// Appends a finished (or aggregate) span; returns its index.
  std::uint32_t add(const Span& span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Per interned name, indexed by name id.
  [[nodiscard]] std::vector<NameTotals> totals() const;
  [[nodiscard]] NameTotals totals_of(std::string_view name) const;
  /// Durations (ns) of every span with this name, in record order.
  [[nodiscard]] std::vector<std::int64_t> durations_of(std::string_view name) const;

  /// One JSON object per line: name, parent, id, start, end, total, count
  /// (times in ns relative to the first span).
  void write(const std::filesystem::path& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span; a null trace makes it a no-op (untraced runs).
class Scope {
 public:
  Scope(Trace* trace, std::uint32_t name, std::uint32_t parent, std::uint64_t id = 0)
      : trace_(trace), index_(trace ? trace->open(name, parent, id) : Span::kNoParent) {}
  ~Scope() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  Trace* trace_;
  std::uint32_t index_;
};

/// Time and calls accumulated by a timing decorator between harvests.
struct CallTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;

  void add(std::int64_t start, std::int64_t end) noexcept {
    if (calls == 0) first_ns = start;
    last_ns = end;
    ns += end - start;
    ++calls;
  }
  /// Records the totals as one aggregate span under `parent` (nothing
  /// when no call happened) and resets them.  Returns the span index.
  std::uint32_t flush(Trace& trace, std::uint32_t name, std::uint32_t parent,
                      std::uint64_t id);
};

/// Adds the trace's coverage check: the named layers' self times must
/// sum to the traced wall within kCoverageTolerance.  Reports
/// trace.coverage_frac = sum of self times / traced wall.
inline constexpr double kCoverageTolerance = 0.02;
void add_coverage(RunResult& result, const Trace& trace, std::int64_t traced_wall_ns);

}  // namespace perfbench
