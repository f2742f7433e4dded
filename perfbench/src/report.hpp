// One run's result: metrics by name with units, correctness gates and
// run context, printed as a human-readable table and as one JSON line.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// printf-style formatting for metric notes and gate details.
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, e.g. "p99, n=2034"
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// An end-to-end metric (reported by --trace 0 runs).
  void end_to_end(std::string name, double value, std::string unit,
                  std::string note = {}) {
    e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  /// A per-layer metric (reported by --trace 1 runs).
  void layer(std::string name, double value, std::string unit,
             std::string note = {}) {
    layers_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }

  /// Context that explains a number but is not gated on.
  void context(std::string key, double value) {
    numbers_.emplace_back(std::move(key), value);
  }
  void context(std::string key, std::string value) {
    strings_.emplace_back(std::move(key), std::move(value));
  }

  /// Records a correctness gate; any failed gate makes the run incorrect.
  void gate(std::string name, bool ok, std::string detail = {}) {
    std::fprintf(stderr, "gate %-28s %s%s%s\n", name.c_str(),
                 ok ? "ok" : "FAILED", detail.empty() ? "" : "  ",
                 detail.c_str());
    gates_.push_back({std::move(name), ok});
  }

  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const {
    bool ok = attempted_ > 0;
    for (const auto& [name, passed] : gates_) ok = ok && passed;
    for (const Metric& m : e2e_) ok = ok && std::isfinite(m.value);
    for (const Metric& m : layers_) ok = ok && std::isfinite(m.value);
    return ok;
  }

  /// Human-readable table on stderr (stdout carries only the JSON line).
  void print_table() const {
    std::fprintf(stderr, "\n== %s: attempted %zu, failed %zu ==\n",
                 workload_.c_str(), attempted_, failed_);
    const auto rows = [](const char* title, const std::vector<Metric>& ms) {
      if (ms.empty()) return;
      std::fprintf(stderr, "-- %s --\n", title);
      for (const Metric& m : ms) {
        std::fprintf(stderr, "%-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                     m.unit.c_str(), m.note.c_str());
      }
    };
    rows("end to end", e2e_);
    rows("per layer", layers_);
    if (!numbers_.empty() || !strings_.empty()) {
      std::fprintf(stderr, "-- context --\n");
      for (const auto& [k, v] : strings_) {
        std::fprintf(stderr, "%-34s %s\n", k.c_str(), v.c_str());
      }
      for (const auto& [k, v] : numbers_) {
        std::fprintf(stderr, "%-34s %.6g\n", k.c_str(), v);
      }
    }
  }

  std::string json() const {
    std::string out = "{\"workload\": " + quote(workload_);
    out += ", \"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"end_to_end\": " + metrics_json(e2e_);
    out += ", \"per_layer\": " + metrics_json(layers_);
    std::vector<std::pair<std::string, std::string>> fields;
    for (const auto& [name, passed] : gates_) {
      fields.emplace_back(name, passed ? "true" : "false");
    }
    out += ", \"gates\": " + object(fields);
    fields.clear();
    for (const auto& [k, v] : strings_) fields.emplace_back(k, quote(v));
    for (const auto& [k, v] : numbers_) fields.emplace_back(k, number(v));
    out += ", \"context\": " + object(fields);
    return out + "}";
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  /// Full precision; non-finite values become null (and fail correct()).
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  /// A JSON object from (key, already-encoded value) pairs.
  static std::string object(
      const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string out = "{";
    for (const auto& [k, v] : fields) {
      if (out.size() > 1) out += ", ";
      out += quote(k);
      out += ": ";
      out += v;
    }
    return out + "}";
  }

  static std::string metrics_json(const std::vector<Metric>& ms) {
    std::vector<std::pair<std::string, std::string>> fields;
    for (const Metric& m : ms) {
      fields.emplace_back(m.name, "{\"value\": " + number(m.value) +
                                      ", \"unit\": " + quote(m.unit) +
                                      ", \"note\": " + quote(m.note) + "}");
    }
    return object(fields);
  }

  std::string workload_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, bool>> gates_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
