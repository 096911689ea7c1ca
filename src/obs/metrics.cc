#include "obs/metrics.h"

#include <sstream>

namespace payless::obs {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetLatencyHistogram(
    const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << h->count()
       << ",\"sum\":" << h->sum() << ",\"p50\":" << h->ValueAtQuantile(0.50)
       << ",\"p95\":" << h->ValueAtQuantile(0.95)
       << ",\"p99\":" << h->ValueAtQuantile(0.99)
       << ",\"p999\":" << h->ValueAtQuantile(0.999) << "}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << g->value() << "\n";
  }
  // Histograms render as Prometheus summaries: the HDR bucket list is too
  // long for useful text exposition, the quantiles are the point.
  for (const auto& [name, h] : histograms_) {
    os << "# TYPE " << name << " summary\n";
    os << name << "{quantile=\"0.5\"} " << h->ValueAtQuantile(0.50) << "\n";
    os << name << "{quantile=\"0.95\"} " << h->ValueAtQuantile(0.95) << "\n";
    os << name << "{quantile=\"0.99\"} " << h->ValueAtQuantile(0.99) << "\n";
    os << name << "{quantile=\"0.999\"} " << h->ValueAtQuantile(0.999)
       << "\n";
    os << name << "_sum " << h->sum() << "\n";
    os << name << "_count " << h->count() << "\n";
  }
  return os.str();
}

}  // namespace payless::obs
