#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sagabench {

Args::Args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: sagabench <mode> [--key value]...");
  mode_ = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("sagabench: expected --key value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("sagabench: missing --" + key);
  return it->second;
}

std::uint64_t Args::get_u64(const std::string& key) const {
  return std::stoull(get(key));
}

double Args::get_double(const std::string& key) const { return std::stod(get(key)); }

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Result::check(bool condition, const std::string& what) {
  if (condition) return;
  ok = false;
  errors.push_back(what);
}

void Result::op_check(bool condition, const std::string& what) {
  ++ops;
  if (condition) return;
  ++failed;
  errors.push_back(what);
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok ? "true" : "false") << ",\"ops\":" << ops
      << ",\"failed\":" << failed;
  out << ",\"values\":{";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    out << sep << json_string(name) << ':' << json_number(value);
    sep = ",";
  }
  out << "},\"samples\":{";
  sep = "";
  for (const auto& [name, list] : samples) {
    out << sep << json_string(name) << ":[";
    const char* inner = "";
    for (const double v : list) {
      out << inner << json_number(v);
      inner = ",";
    }
    out << ']';
    sep = ",";
  }
  out << "},\"info\":{";
  sep = "";
  for (const auto& [name, text] : info) {
    out << sep << json_string(name) << ':' << json_string(text);
    sep = ",";
  }
  out << "},\"errors\":[";
  sep = "";
  for (const auto& error : errors) {
    out << sep << json_string(error);
    sep = ",";
  }
  out << "]}";
  return out.str();
}

namespace {
thread_local std::uint64_t t_open_span = 0;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = parent_;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_.push_back(
      {name_, id_, parent_, request_, tracer_->to_us(start_), tracer_->to_us(end)});
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

double Tracer::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("sagabench: cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\":[";
  const char* sep = "";
  char buf[96];
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof buf, ",%llu,%llu,%llu,%.3f,%.3f]",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request), r.start_us, r.end_us);
    out << sep << '[' << json_string(r.name) << buf;
    sep = ",\n";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("sagabench: short write to trace " + path);
}

}  // namespace sagabench
