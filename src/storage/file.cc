#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"

namespace edadb {

namespace {
Status ErrnoStatus(const std::string& context) {
  return Status::IOError(context + ": " + std::strerror(errno));
}
}  // namespace

Result<std::unique_ptr<WritableFile>> WritableFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat " + path);
    ::close(fd);
    return s;
  }
  return std::unique_ptr<WritableFile>(
      new WritableFile(path, fd, static_cast<uint64_t>(st.st_size)));
}

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status WritableFile::Append(std::string_view data) {
  std::string_view to_write = data;
  bool injected = false;
  Status injected_status;
  bool injected_crash = false;
#if EDADB_FAILPOINTS_ENABLED
  // Short write: only the first `arg` bytes reach the file before the
  // "device" fails — the prefix is persisted first so recovery sees it.
  if (failpoint::internal::AnyArmed()) {
    const failpoint::FireResult fp = failpoint::Fire("file.append.short");
    if (fp.fired) {
      injected = true;
      injected_crash = (fp.kind == failpoint::ActionKind::kCrash);
      injected_status = fp.status.ok()
                            ? Status::IOError("injected short write")
                            : fp.status;
      to_write = data.substr(
          0, std::min(static_cast<size_t>(fp.arg), data.size()));
    }
  }
#endif
  const char* p = to_write.data();
  size_t remaining = to_write.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path_);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  size_ += to_write.size();
  if (injected) {
    if (injected_crash) failpoint::Crash("file.append.short");
    return injected_status;
  }
  return Status::OK();
}

Status WritableFile::Sync() {
  FAILPOINT("file.sync");
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_);
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      fd_ = -1;
      return ErrnoStatus("close " + path_);
    }
    fd_ = -1;
  }
  return Status::OK();
}

Status WritableFile::Truncate(uint64_t size) {
  FAILPOINT("file.truncate");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate " + path_);
  }
  // O_APPEND writes always go to the (new) end; track it.
  size_ = size;
  return Status::OK();
}

Result<std::unique_ptr<RandomAccessFile>> RandomAccessFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path);
  return std::unique_ptr<RandomAccessFile>(new RandomAccessFile(path, fd));
}

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status RandomAccessFile::Read(uint64_t offset, size_t n,
                              std::string* out) const {
  out->resize(n);
  EDADB_ASSIGN_OR_RETURN(const size_t done, ReadAt(offset, out->data(), n));
  out->resize(done);
  return Status::OK();
}

Result<size_t> RandomAccessFile::ReadAt(uint64_t offset, char* dst,
                                        size_t n) const {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd_, dst + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread " + path_);
    }
    if (r == 0) break;  // EOF.
    done += static_cast<size_t>(r);
  }
  return done;
}

Result<uint64_t> RandomAccessFile::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat " + path_);
  return static_cast<uint64_t>(st.st_size);
}

Status CreateDirIfMissing(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::remove(path, ec) || ec) {
    return Status::IOError("remove " + path +
                           (ec ? ": " + ec.message() : ": not found"));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> names;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) return Status::IOError("listdir " + dir + ": " + ec.message());
  return names;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec;
}

Result<std::string> ReadFileToString(const std::string& path) {
  EDADB_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  EDADB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string out;
  EDADB_RETURN_IF_ERROR(file->Read(0, size, &out));
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view data,
                         bool sync) {
  // Write to a temp file and rename for atomicity.
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open " + tmp);
    const char* p = data.data();
    size_t remaining = data.size();
    while (remaining > 0) {
      const ssize_t n = ::write(fd, p, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = ErrnoStatus("write " + tmp);
        ::close(fd);
        return s;
      }
      p += n;
      remaining -= static_cast<size_t>(n);
    }
    if (sync && ::fdatasync(fd) != 0) {
      const Status s = ErrnoStatus("fdatasync " + tmp);
      ::close(fd);
      return s;
    }
    if (::close(fd) != 0) return ErrnoStatus("close " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  return Status::OK();
}

}  // namespace edadb
