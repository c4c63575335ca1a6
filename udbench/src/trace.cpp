#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace udbench {

namespace {

/// Median cost, in ticks, of a span around nothing: subtracted from every
/// timed call so per-call figures do not include the clock reads.
double calibrate_null_span() {
  std::vector<std::uint64_t> costs(4096);
  for (std::uint64_t& cost : costs) {
    const std::uint64_t begin = ticks();
    cost = ticks() - begin;
  }
  std::nth_element(costs.begin(), costs.begin() + costs.size() / 2, costs.end());
  return static_cast<double>(costs[costs.size() / 2]);
}

}  // namespace

Trace::Trace()
    : start_ticks_(ticks()),
      start_ns_(steady_ns()),
      null_span_ticks_(calibrate_null_span()) {
  // A first tick rate from a short spin, so per-batch figures can be
  // converted while the run is going; finish() refines it over the run.
  while (steady_ns() - start_ns_ < 20'000'000) {
  }
  finish();
}

const Layer* Trace::find(const std::string& name) const {
  const auto found = layers_.find(name);
  return found == layers_.end() ? nullptr : &found->second;
}

double Trace::busy_ns(const std::string& name) const {
  const Layer* layer = find(name);
  if (layer == nullptr) return 0;
  const double net = static_cast<double>(layer->ticks) -
                     null_span_ticks_ * static_cast<double>(layer->calls);
  return std::max(net, 0.0) * ns_per_tick_;
}

double Trace::busy_s(std::initializer_list<const char*> names) const {
  double total = 0;
  for (const char* name : names) total += busy_ns(name);
  return total * 1e-9;
}

double Trace::per_call_ns(const std::string& name) const {
  const Layer* layer = find(name);
  if (layer == nullptr || layer->calls == 0) return 0;
  return busy_ns(name) / static_cast<double>(layer->calls);
}

std::uint32_t Trace::open_span(std::string name, std::uint32_t parent,
                               std::uint64_t unit) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.unit = unit;
  span.start_ns = steady_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::close_span(std::uint32_t id) { spans_.at(id - 1).end_ns = steady_ns(); }

double Trace::quantile_ns(const std::string& name, double q) const {
  const auto found = samples_.find(name);
  if (found == samples_.end() || found->second.empty()) return 0;
  std::vector<double> values = found->second;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * frac;
}

void Trace::finish() {
  const std::uint64_t elapsed_ticks = ticks() - start_ticks_;
  const std::uint64_t elapsed_ns = steady_ns() - start_ns_;
  if (elapsed_ticks > 0) {
    ns_per_tick_ =
        static_cast<double>(elapsed_ns) / static_cast<double>(elapsed_ticks);
  }
}

bool Trace::write_spans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"unit\":" << span.unit
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  // The repo's CLIs print digests with std::hex (no leading zeros).
  std::string out(text);
  const std::size_t first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace udbench
