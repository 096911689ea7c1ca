#include "obs/trace.h"

#include <sstream>

namespace payless::obs {

uint64_t Trace::StartSpan(std::string name, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_micros = NowMicros();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Trace::EndSpan(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return false;
  SpanRecord& span = spans_[id - 1];
  if (span.closed()) return false;
  span.duration_micros = NowMicros() - span.start_micros;
  return true;
}

void Trace::AddAttr(uint64_t id, std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::move(key), std::move(value));
}

void Trace::AddAttr(uint64_t id, std::string key, int64_t value) {
  AddAttr(id, std::move(key), std::to_string(value));
}

size_t Trace::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<SpanRecord> Trace::TakeSpans() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

void AppendJsonEscaped(std::ostringstream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
}

std::string SpansToJson(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) os << ",";
    os << "{\"id\":" << span.id << ",\"parent\":" << span.parent
       << ",\"name\":\"";
    AppendJsonEscaped(os, span.name);
    os << "\",\"start_us\":" << span.start_micros
       << ",\"duration_us\":" << span.duration_micros << ",\"attrs\":{";
    for (size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) os << ",";
      os << "\"";
      AppendJsonEscaped(os, span.attrs[a].first);
      os << "\":\"";
      AppendJsonEscaped(os, span.attrs[a].second);
      os << "\"";
    }
    os << "}}";
  }
  os << "]";
  return os.str();
}

Result<std::unique_ptr<JsonlTraceSink>> JsonlTraceSink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open trace sink '" + path + "'");
  }
  return std::unique_ptr<JsonlTraceSink>(new JsonlTraceSink(file));
}

JsonlTraceSink::~JsonlTraceSink() { std::fclose(file_); }

void JsonlTraceSink::Emit(const std::string& tenant, uint64_t query_id,
                          const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"tenant\":\"";
  AppendJsonEscaped(os, tenant);
  os << "\",\"query_id\":" << query_id << ",\"spans\":" << SpansToJson(spans)
     << "}\n";
  const std::string line = os.str();
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  ++lines_;
}

int64_t JsonlTraceSink::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace payless::obs
