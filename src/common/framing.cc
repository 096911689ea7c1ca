#include "common/framing.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binio.h"

namespace payless::common {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Makes the entries of the directory holding `path` (creations, renames)
/// durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("directory open", dir);
  const Status synced =
      ::fsync(fd) == 0 ? Status::OK() : Errno("directory fsync", dir);
  ::close(fd);
  return synced;
}

}  // namespace

uint32_t Crc32(const char* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ static_cast<uint8_t>(data[i])) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

namespace {

/// One payload wrapped in its `[len][crc]` header, ready to append.
std::string FrameOf(const std::string& payload) {
  std::string frame;
  BinWriter w(&frame);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload));
  frame += payload;
  return frame;
}

/// Walks every intact frame of an in-memory byte stream.
FrameReadResult ReadFrames(const std::string& bytes) {
  FrameReadResult result;
  result.total_bytes = static_cast<int64_t>(bytes.size());
  size_t pos = 0;
  while (pos < bytes.size()) {
    BinReader header(bytes.data() + pos, bytes.size() - pos);
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!header.U32(&len) || !header.U32(&crc) || len > kMaxFramePayload ||
        header.remaining() < len) {
      result.torn_tail = true;  // short header, absurd length, short payload
      break;
    }
    const char* payload = bytes.data() + pos + 8;
    if (Crc32(payload, len) != crc) {
      result.torn_tail = true;  // partial or corrupted payload bytes
      break;
    }
    result.payloads.emplace_back(payload, len);
    pos += 8 + len;
  }
  result.valid_bytes = static_cast<int64_t>(pos);
  return result;
}

}  // namespace

FrameReadResult ReadFramedFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return FrameReadResult{};  // no file yet: empty, un-torn
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadFrames(buffer.str());
}

FramedAppendFile::~FramedAppendFile() { Close(); }

Status FramedAppendFile::Open() {
  if (fd_ >= 0) return Status::OK();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Errno("framed open", path_);
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  size_bytes_ = end < 0 ? 0 : static_cast<int64_t>(end);
  return SyncParentDir(path_);
}

Status FramedAppendFile::Append(const std::string& payload) {
  PAYLESS_RETURN_IF_ERROR(Open());
  const std::string frame = FrameOf(payload);
  PAYLESS_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size(), path_));
  size_bytes_ += static_cast<int64_t>(frame.size());
  if (::fsync(fd_) != 0) return Errno("framed fsync", path_);
  return Status::OK();
}

Status FramedAppendFile::AppendTorn(const std::string& payload,
                                    size_t torn_bytes) {
  PAYLESS_RETURN_IF_ERROR(Open());
  const std::string frame = FrameOf(payload);
  const size_t n = torn_bytes < frame.size() ? torn_bytes : frame.size();
  PAYLESS_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), n, path_));
  size_bytes_ += static_cast<int64_t>(n);
  return Status::OK();
}

Status FramedAppendFile::Reset() {
  Close();
  if (::truncate(path_.c_str(), 0) != 0 && errno != ENOENT) {
    return Errno("framed truncate", path_);
  }
  size_bytes_ = 0;
  return Open();
}

void FramedAppendFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ReplaceFileDurably(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  Status written = WriteAll(fd, bytes.data(), bytes.size(), tmp);
  if (written.ok() && ::fsync(fd) != 0) written = Errno("fsync", tmp);
  ::close(fd);
  PAYLESS_RETURN_IF_ERROR(written);
  // The rename is the commit point; the directory fsync makes it durable.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename '" + tmp + "' ->", path);
  }
  return SyncParentDir(path);
}

}  // namespace payless::common
