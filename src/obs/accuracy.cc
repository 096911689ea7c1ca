#include "obs/accuracy.h"

#include <algorithm>
#include <cctype>

namespace payless::obs {

namespace {

int64_t ToX100(double v) {
  const double scaled = v * 100.0;
  constexpr double kMax = 9.0e18;
  return static_cast<int64_t>(std::min(scaled, kMax));
}

}  // namespace

AccuracyTracker::AccuracyTracker(MetricsRegistry* metrics)
    : metrics_(metrics) {
  if (metrics_ != nullptr) {
    drift_ticks_ = metrics_->GetCounter("payless_stats_drift_ticks_total");
  }
}

double AccuracyTracker::QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

std::string AccuracyTracker::SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    if (!ok) c = '_';
  }
  return out;
}

AccuracyTracker::PerTable& AccuracyTracker::Entry(const std::string& table) {
  PerTable& entry = tables_[table];
  if (metrics_ != nullptr && entry.qerror_hist == nullptr) {
    entry.qerror_hist = metrics_->GetLatencyHistogram(
        "payless_qerror_x100_" + SanitizeMetricName(table));
  }
  return entry;
}

void AccuracyTracker::PrepareTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry(table);
}

void AccuracyTracker::Record(const std::string& table, double estimated,
                             double actual) {
  const double qerror = QError(estimated, actual);
  total_samples_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  PerTable& entry = Entry(table);
  AccuracySnapshot& snap = entry.snapshot;
  ++snap.samples;
  snap.last_qerror = qerror;
  snap.max_qerror = std::max(snap.max_qerror, qerror);
  snap.sum_qerror += qerror;
  if (entry.qerror_hist != nullptr) {
    entry.qerror_hist->Record(ToX100(qerror));
  }
}

void AccuracyTracker::CountDriftTick() {
  drift_epoch_.fetch_add(1, std::memory_order_acq_rel);
  if (drift_ticks_ != nullptr) drift_ticks_->Add(1);
}

AccuracySnapshot AccuracyTracker::Snapshot(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(table);
  if (it == tables_.end()) return AccuracySnapshot{};
  return it->second.snapshot;
}

}  // namespace payless::obs
