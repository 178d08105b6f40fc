#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(RunResult& result) {
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.errors.push_back("metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& note : result.notes) std::cout << note << '\n';
  std::cout << "failed_frac: "
            << (result.attempted > 0 ? static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted)
                                     : 0.0)
            << " (" << result.failed << " of " << result.attempted << " attempted)\n";
  for (const std::string& error : result.errors) {
    std::cout << "CHECK FAILED: " << error << '\n';
  }
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    std::cout << (first ? "" : ", ") << '"' << metric.name << "\": {\"value\": " << value
              << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

std::uint32_t Trace::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Trace::open(std::uint32_t name, std::uint32_t parent, std::uint64_t id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.count = 1;
  span.start_ns = now_ns();
  return add(span);
}

void Trace::close(std::uint32_t index) {
  Span& span = spans_.at(index);
  span.end_ns = now_ns();
  span.total_ns = span.end_ns - span.start_ns;
}

std::uint32_t Trace::add(const Span& span) {
  if (spans_.size() >= Span::kNoParent) throw std::length_error("Trace: too many spans");
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<NameTotals> Trace::totals() const {
  std::vector<NameTotals> out(names_.size());
  for (const Span& span : spans_) {
    out[span.name].self_ns += span.total_ns;
    out[span.name].total_ns += span.total_ns;
    out[span.name].count += span.count;
    if (span.parent != Span::kNoParent) {
      out[spans_[span.parent].name].self_ns -= span.total_ns;
    }
  }
  return out;
}

NameTotals Trace::totals_of(std::string_view name) const {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals()[i];
  }
  return {};
}

std::vector<std::int64_t> Trace::durations_of(std::string_view name) const {
  std::vector<std::int64_t> out;
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    for (const Span& span : spans_) {
      if (span.name == i) out.push_back(span.total_ns);
    }
  }
  return out;
}

void Trace::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << names_[span.name] << "\", \"parent\": "
        << (span.parent == Span::kNoParent ? -1 : static_cast<std::int64_t>(span.parent))
        << ", \"id\": " << span.id << ", \"start\": " << span.start_ns - origin
        << ", \"end\": " << span.end_ns - origin << ", \"total\": " << span.total_ns
        << ", \"count\": " << span.count << "}\n";
  }
  if (!out) throw std::runtime_error("Trace: cannot write " + path.string());
}

std::uint32_t CallTotals::flush(Trace& trace, std::uint32_t name, std::uint32_t parent,
                                std::uint64_t id) {
  std::uint32_t index = Span::kNoParent;
  if (calls > 0) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.start_ns = first_ns;
    span.end_ns = last_ns;
    span.total_ns = ns;
    span.count = calls;
    index = trace.add(span);
  }
  *this = CallTotals{};
  return index;
}

void add_coverage(RunResult& result, const Trace& trace, std::int64_t traced_wall_ns) {
  std::int64_t self_sum = 0;
  for (const NameTotals& totals : trace.totals()) self_sum += totals.self_ns;
  const double coverage =
      static_cast<double>(self_sum) / static_cast<double>(std::max<std::int64_t>(1, traced_wall_ns));
  result.add("trace.coverage_frac", coverage, "frac");
  result.check(std::abs(coverage - 1.0) <= kCoverageTolerance,
               "per-layer self times sum to " + std::to_string(coverage) +
                   " of the traced wall (tolerance " +
                   std::to_string(kCoverageTolerance) + ")");
}

}  // namespace perfbench
