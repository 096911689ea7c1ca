#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <sstream>

namespace payless::obs {

namespace {

// The armed recorder and its dump path live in process-wide statics so the
// crash path needs no object plumbing: durability's crash points call
// DumpArmedRecorder() with nothing in hand. The path is a fixed buffer —
// no allocation between arming and the crash dump.
std::atomic<FlightRecorder*> g_armed{nullptr};
constexpr size_t kMaxDumpPath = 512;
char g_armed_path[kMaxDumpPath] = {0};

}  // namespace

FlightRecorder::FlightRecorder(const Options& options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.entry_bytes < 64) options_.entry_bytes = 64;
  slots_ = std::make_unique<Slot[]>(options_.capacity);
  for (size_t i = 0; i < options_.capacity; ++i) {
    slots_[i].buf = std::make_unique<char[]>(options_.entry_bytes);
  }
}

FlightRecorder::~FlightRecorder() {
  FlightRecorder* expected = this;
  g_armed.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel);
}

void FlightRecorder::Record(const std::string& entry_json) {
  if (entry_json.size() > options_.entry_bytes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed) %
                   options_.capacity;
  Slot& slot = slots_[i];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acq_rel)) {
    // Another writer lapped the ring into this very slot; drop rather
    // than block — the recorder is a best-effort black box.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Byte-wise atomics: a reader may copy this slot while it is rewritten
  // (its seq re-check then discards the copy). Release stores keep the odd
  // seq ordered before every byte a reader can observe.
  for (size_t k = 0; k < entry_json.size(); ++k) {
    std::atomic_ref<char>(slot.buf[k]).store(entry_json[k],
                                             std::memory_order_release);
  }
  slot.len.store(entry_json.size(), std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

bool FlightRecorder::ReadSlot(size_t i, std::string* out) const {
  const Slot& slot = slots_[i];
  const uint64_t before = slot.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;  // empty or mid-write
  const size_t len = slot.len.load(std::memory_order_relaxed);
  if (len == 0 || len > options_.entry_bytes) return false;
  out->resize(len);
  for (size_t k = 0; k < len; ++k) {
    (*out)[k] =
        std::atomic_ref<char>(slot.buf[k]).load(std::memory_order_acquire);
  }
  return slot.seq.load(std::memory_order_acquire) == before;
}

std::string FlightRecorder::ToJson() const {
  // Oldest-to-newest: the ring's logical order starts right after the next
  // write position.
  const uint64_t next = next_.load(std::memory_order_relaxed);
  std::ostringstream os;
  os << "{\"entries\":[";
  bool first = true;
  std::string entry;
  for (size_t k = 0; k < options_.capacity; ++k) {
    const size_t i = (next + k) % options_.capacity;
    if (!ReadSlot(i, &entry)) continue;
    if (!first) os << ",";
    first = false;
    os << entry;
  }
  os << "],\"recorded\":" << recorded() << ",\"dropped\":" << dropped()
     << "}";
  return os.str();
}

namespace {

/// `dump.json` + seq 2 -> `dump-2.json`; no extension appends the suffix.
std::string SuffixedDumpPath(const std::string& path, uint64_t seq) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  const size_t insert_at =
      (dot != std::string::npos && (slash == std::string::npos || dot > slash))
          ? dot
          : path.size();
  return path.substr(0, insert_at) + "-" + std::to_string(seq) +
         path.substr(insert_at);
}

}  // namespace

bool FlightRecorder::DumpTo(const std::string& path) const {
  const uint64_t seq = dump_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string target = seq == 0 ? path : SuffixedDumpPath(path, seq);
  const int fd =
      ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string json = ToJson();
  size_t off = 0;
  bool ok = true;
  while (off < json.size()) {
    const ssize_t n = ::write(fd, json.data() + off, json.size() - off);
    if (n <= 0) {
      ok = false;
      break;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return ok;
}

void FlightRecorder::ArmCrashDump(const std::string& path) {
  if (path.empty() || path.size() >= kMaxDumpPath) {
    FlightRecorder* expected = this;
    g_armed.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
    return;
  }
  std::memcpy(g_armed_path, path.c_str(), path.size() + 1);
  g_armed.store(this, std::memory_order_release);
}

void FlightRecorder::DumpArmedRecorder() {
  FlightRecorder* recorder = g_armed.load(std::memory_order_acquire);
  if (recorder == nullptr || g_armed_path[0] == '\0') return;
  (void)recorder->DumpTo(g_armed_path);
}

}  // namespace payless::obs
