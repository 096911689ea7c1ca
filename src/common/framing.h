// CRC-framed append-only file discipline of the harvest WAL in
// src/durability.
//
// On-disk framing, per record:
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The reader walks frames until the bytes end or a frame fails validation
// (short header, absurd length, short payload, CRC mismatch) — everything
// from the first invalid byte on is a TORN TAIL left by a crash mid-append,
// reported but never applied. A framed file is therefore always
// recoverable: the prefix of intact frames is exactly the durable set.
#ifndef PAYLESS_COMMON_FRAMING_H_
#define PAYLESS_COMMON_FRAMING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace payless::common {

/// CRC-32 (IEEE, reflected) of a byte span — the frame checksum.
uint32_t Crc32(const char* data, size_t size);
inline uint32_t Crc32(const std::string& s) {
  return Crc32(s.data(), s.size());
}

/// Frames larger than this fail validation outright: a length field beyond
/// it is garbage from a torn header, not a real record.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB

/// Everything one pass over a framed byte stream yields.
struct FrameReadResult {
  std::vector<std::string> payloads;  // intact frames, in append order
  bool torn_tail = false;             // stream ends in an invalid frame
  int64_t valid_bytes = 0;            // prefix covered by intact frames
  int64_t total_bytes = 0;            // stream size as read
};

/// Reads every intact frame of the file at `path`. A missing file is an
/// empty, un-torn stream. Never fails on torn or corrupt content — the
/// torn tail is data about the crash, not an error.
FrameReadResult ReadFramedFile(const std::string& path);

/// Append handle over one framed file. Not thread-safe: callers serialize
/// appends (the durability manager owns the whole harvest path).
class FramedAppendFile {
 public:
  explicit FramedAppendFile(std::string path) : path_(std::move(path)) {}
  ~FramedAppendFile();

  FramedAppendFile(const FramedAppendFile&) = delete;
  FramedAppendFile& operator=(const FramedAppendFile&) = delete;

  /// Opens (creating if absent) for append and fsyncs the directory, so a
  /// newly created file's entry is durable before its first append.
  /// Idempotent.
  Status Open();

  /// Frames, appends and fsyncs one payload: once this returns OK the
  /// record survives a power cut. Size accounting includes the 8-byte
  /// frame header.
  Status Append(const std::string& payload);

  /// Crash-injection path: writes only the first `torn_bytes` bytes of the
  /// frame (header included) and stops — the torn tail a real kill
  /// mid-append leaves behind. Never fsyncs (the process "died").
  Status AppendTorn(const std::string& payload, size_t torn_bytes);

  /// Truncates the file to empty and reopens it.
  Status Reset();

  void Close();

  int64_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  int64_t size_bytes_ = 0;
};

/// Replaces the file at `path` with `bytes` durably: writes `path`.tmp,
/// fsyncs it, renames it over `path` (readers see the old or the new
/// complete file, never a mix) and fsyncs the directory, so once this
/// returns OK the new contents survive a power cut.
Status ReplaceFileDurably(const std::string& path, const std::string& bytes);

}  // namespace payless::common

#endif  // PAYLESS_COMMON_FRAMING_H_
