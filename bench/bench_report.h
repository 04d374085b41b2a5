// Unified bench output: every bench emits ONE machine-readable JSON
// document on stdout, committed under results/*.json, with the same
// envelope —
//
//   {
//     "bench": "<name>",
//     "host_hw_threads": N,
//     "caveat": "...",          // what the numbers do NOT mean on this host
//     <bench-specific metadata: knob values, workload sizes>,
//     "results": [ { <one measurement per row> }, ... ]
//   }
//
// so the experiment harness (and EXPERIMENTS.md readers) can diff runs
// across hosts without per-bench parsers. Human-readable progress goes
// to stderr; stdout carries only the document.
//
// Usage:
//   JsonReport report("snapshot_scaling");
//   report.Caveat("speedup > 1 requires real cores");
//   report.Meta("queries", num_queries);
//   ...
//   report.BeginRow();
//   report.Field("threads", t);
//   report.Field("seconds", secs);
//   report.EndRow();
//   ...
//   report.Finish();   // also run by the destructor

#ifndef MVOPT_BENCH_BENCH_REPORT_H_
#define MVOPT_BENCH_BENCH_REPORT_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

namespace mvopt {
namespace bench {

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// bench metadata is ASCII by construction.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonReport {
 public:
  explicit JsonReport(const std::string& bench, std::FILE* out = stdout)
      : out_(out) {
    std::fprintf(out_, "{\n  \"bench\": \"%s\",\n  \"host_hw_threads\": %u",
                 JsonEscape(bench).c_str(),
                 std::thread::hardware_concurrency());
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { Finish(); }

  /// Host-dependent disclaimer recorded next to the numbers (e.g. the
  /// core count they were taken on). Metadata — call before BeginRow.
  void Caveat(const std::string& text) { Meta("caveat", text); }

  void Meta(const std::string& key, const std::string& value) {
    MetaKey(key);
    std::fprintf(out_, "\"%s\"", JsonEscape(value).c_str());
  }
  void Meta(const std::string& key, const char* value) {
    Meta(key, std::string(value));
  }
  void Meta(const std::string& key, int64_t value) {
    MetaKey(key);
    std::fprintf(out_, "%lld", static_cast<long long>(value));
  }
  void Meta(const std::string& key, int value) {
    Meta(key, static_cast<int64_t>(value));
  }
  void Meta(const std::string& key, unsigned value) {
    Meta(key, static_cast<int64_t>(value));
  }
  void Meta(const std::string& key, double value) {
    MetaKey(key);
    std::fprintf(out_, "%.4f", value);
  }
  void Meta(const std::string& key, bool value) {
    MetaKey(key);
    std::fprintf(out_, "%s", value ? "true" : "false");
  }

  void BeginRow() {
    assert(!in_row_);
    if (!rows_started_) {
      std::fprintf(out_, ",\n  \"results\": [\n");
      rows_started_ = true;
    } else {
      std::fprintf(out_, ",\n");
    }
    std::fprintf(out_, "    {");
    in_row_ = true;
    row_field_ = false;
  }

  void Field(const std::string& key, const std::string& value) {
    FieldKey(key);
    std::fprintf(out_, "\"%s\"", JsonEscape(value).c_str());
  }
  void Field(const std::string& key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const std::string& key, int64_t value) {
    FieldKey(key);
    std::fprintf(out_, "%lld", static_cast<long long>(value));
  }
  void Field(const std::string& key, int value) {
    Field(key, static_cast<int64_t>(value));
  }
  void Field(const std::string& key, double value) {
    FieldKey(key);
    std::fprintf(out_, "%.4f", value);
  }
  void Field(const std::string& key, bool value) {
    FieldKey(key);
    std::fprintf(out_, "%s", value ? "true" : "false");
  }

  void EndRow() {
    assert(in_row_);
    std::fprintf(out_, " }");
    in_row_ = false;
    std::fflush(out_);
  }

  /// Closes the document (idempotent; the destructor calls it too).
  void Finish() {
    if (finished_) return;
    assert(!in_row_);
    if (rows_started_) {
      std::fprintf(out_, "\n  ]\n}\n");
    } else {
      std::fprintf(out_, ",\n  \"results\": []\n}\n");
    }
    std::fflush(out_);
    finished_ = true;
  }

 private:
  void MetaKey(const std::string& key) {
    assert(!rows_started_ && "metadata must precede the first row");
    std::fprintf(out_, ",\n  \"%s\": ", JsonEscape(key).c_str());
  }
  void FieldKey(const std::string& key) {
    assert(in_row_);
    std::fprintf(out_, "%s\"%s\": ", row_field_ ? ", " : " ",
                 JsonEscape(key).c_str());
    row_field_ = true;
  }

  std::FILE* out_;
  bool rows_started_ = false;
  bool in_row_ = false;
  bool row_field_ = false;
  bool finished_ = false;
};

}  // namespace bench
}  // namespace mvopt

#endif  // MVOPT_BENCH_BENCH_REPORT_H_
