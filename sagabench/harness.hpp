// Process-side plumbing of the Saga benchmark: command-line parsing, the
// one-line result record run.py reads, and the span recorder of traced runs.
//
// Statistics (medians, percentiles, span self times) are deliberately not
// computed here: every process reports raw samples and spans, and run.py
// reduces them, so one tested implementation covers every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sagabench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// `--key value` pairs; every option the binary takes has a value.
class Args {
 public:
  Args(int argc, char** argv);
  const std::string& mode() const noexcept { return mode_; }
  std::string get(const std::string& key) const;  // throws when missing
  std::uint64_t get_u64(const std::string& key) const;
  double get_double(const std::string& key) const;

 private:
  std::string mode_;
  std::map<std::string, std::string> values_;
};

/// What one benchmark process hands back to run.py, printed as a single
/// `RESULT {...}` line. `ops` counts the operations the process attempted;
/// a process whose output checks fail reports ok = false and exits 3.
/// `failed` counts operations that failed a check of their own (op_check)
/// while the process's other operations, and their timings, still hold.
struct Result {
  bool ok = true;
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  /// Records a failed output check (the process keeps going, so one run
  /// reports every broken property, not just the first).
  void check(bool condition, const std::string& what);
  /// One operation with a check of its own: counted in `ops`, and in
  /// `failed` when the check fails, without failing the process.
  void op_check(bool condition, const std::string& what);
  std::string to_json() const;
};

/// In-memory span recorder for traced runs. A span has a name, a start and
/// an end, the span open on the same thread when it began (its parent), and
/// an optional request id shared by the spans of one serve request. Spans
/// are written out once, at the end of the process.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    double start_us;
    double end_us;
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    Clock::time_point start_{};
  };

  std::uint64_t next_id();
  /// Writes {"spans": [[name, id, parent, request, start_us, end_us], ...]}.
  void write(const std::string& path) const;

 private:
  double to_us(Clock::time_point t) const;

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
  std::uint64_t last_id_ = 0;    // guarded by mutex_
};

/// Compact JSON string escaping for names and messages.
std::string json_string(const std::string& text);

}  // namespace sagabench
