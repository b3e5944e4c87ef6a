#ifndef EDADB_STORAGE_FILE_H_
#define EDADB_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"

namespace edadb {

/// Append-only file handle used by the write-ahead log and checkpoints.
/// Not thread-safe; callers serialize.
class WritableFile {
 public:
  /// Opens for appending, creating the file if needed.
  EDADB_NODISCARD static Result<std::unique_ptr<WritableFile>> Open(const std::string& path);

  ~WritableFile();

  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  EDADB_NODISCARD Status Append(std::string_view data);

  /// Durability barrier (fdatasync).
  EDADB_NODISCARD Status Sync();

  EDADB_NODISCARD Status Close();

  /// Shrinks the file to `size` bytes (used to drop a torn WAL tail).
  EDADB_NODISCARD Status Truncate(uint64_t size);

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  uint64_t size_;
};

/// Positional (pread) reader; safe to use while a WritableFile appends to
/// the same path, which is how the journal miner tails the live WAL.
class RandomAccessFile {
 public:
  EDADB_NODISCARD static Result<std::unique_ptr<RandomAccessFile>> Open(
      const std::string& path);

  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Reads up to `n` bytes at `offset` into `out` (resized to the bytes
  /// actually read; short reads at EOF are not errors).
  EDADB_NODISCARD Status Read(uint64_t offset, size_t n, std::string* out) const;

  /// Reads up to `n` bytes at `offset` into `dst`, which must have room
  /// for them; returns the count read (fewer only at EOF).
  EDADB_NODISCARD Result<size_t> ReadAt(uint64_t offset, char* dst,
                                        size_t n) const;

  /// Current file size (re-stat'ed, so it observes concurrent appends).
  EDADB_NODISCARD Result<uint64_t> Size() const;

  const std::string& path() const { return path_; }

 private:
  RandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
};

/// Small filesystem helpers (wrappers over std::filesystem that return
/// Status instead of throwing).
EDADB_NODISCARD Status CreateDirIfMissing(const std::string& dir);
EDADB_NODISCARD Status RemoveFile(const std::string& path);
EDADB_NODISCARD Result<std::vector<std::string>> ListDir(const std::string& dir);
bool FileExists(const std::string& path);
EDADB_NODISCARD Result<std::string> ReadFileToString(const std::string& path);
EDADB_NODISCARD Status WriteStringToFile(const std::string& path, std::string_view data,
                         bool sync);

}  // namespace edadb

#endif  // EDADB_STORAGE_FILE_H_
