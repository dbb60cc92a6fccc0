#include "common/io/mmap_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.h"

#if defined(_WIN32)
#include <fcntl.h>
#include <io.h>
#include <sys/stat.h>

#include <climits>
#include <fstream>
#include <iterator>
#include <mutex>
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace qsyn::io {

namespace {

[[noreturn]] void fail(const std::string& op, const std::string& path,
                       const std::string& detail) {
  throw qsyn::IoError(op + " failed for '" + path + "': " + detail);
}

// The few file-descriptor calls SpillWriter makes, per platform.
#if defined(_WIN32)
int create_for_write(const std::string& path) {
  return ::_open(path.c_str(), _O_WRONLY | _O_CREAT | _O_TRUNC | _O_BINARY,
                 _S_IREAD | _S_IWRITE);
}
long write_some(int fd, const std::uint8_t* bytes, std::size_t n) {
  return ::_write(fd, bytes,
                  static_cast<unsigned>(std::min<std::size_t>(n, INT_MAX)));
}
// No pwrite: a seek and a write under one process-wide lock, so positional
// writes from several threads are serialized.
long write_some_at(int fd, const std::uint8_t* bytes, std::size_t n,
                   std::uint64_t offset) {
  static std::mutex seek_then_write;
  const std::lock_guard<std::mutex> lock(seek_then_write);
  if (::_lseeki64(fd, static_cast<__int64>(offset), SEEK_SET) < 0) return -1;
  return write_some(fd, bytes, n);
}
int close_fd_raw(int fd) { return ::_close(fd); }
#else
int create_for_write(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}
long write_some(int fd, const std::uint8_t* bytes, std::size_t n) {
  return static_cast<long>(::write(fd, bytes, n));
}
long write_some_at(int fd, const std::uint8_t* bytes, std::size_t n,
                   std::uint64_t offset) {
  return static_cast<long>(::pwrite(fd, bytes, n, static_cast<off_t>(offset)));
}
int close_fd_raw(int fd) { return ::close(fd); }
#endif

// Writes all `n` bytes through `write_once(bytes + done, n - done, done)`,
// which returns what one call wrote or -1; retries EINTR and short writes.
template <typename WriteOnce>
void write_fully(const std::string& path, const std::uint8_t* bytes,
                 std::size_t n, WriteOnce&& write_once) {
  std::size_t done = 0;
  while (done < n) {
    const long written = write_once(bytes + done, n - done, done);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      fail("write", path, written < 0 ? std::strerror(errno) : "no progress");
    }
    done += static_cast<std::size_t>(written);
  }
}

}  // namespace

std::shared_ptr<const MmapFile> MmapFile::map(const std::string& path) {
  return std::shared_ptr<const MmapFile>(
      new MmapFile(path, /*remove_on_destroy=*/false));
}

#if defined(_WIN32)

MmapFile::MmapFile(const std::string& path, bool remove_on_destroy)
    : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("open", path, "cannot open for reading");
  fallback_.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  if (in.bad()) fail("read", path, "stream error");
  data_ = fallback_.empty() ? nullptr : fallback_.data();
  size_ = fallback_.size();
  remove_on_destroy_ = remove_on_destroy;
}

MmapFile::~MmapFile() {
  if (remove_on_destroy_) std::remove(path_.c_str());
}

#else

MmapFile::MmapFile(const std::string& path, bool remove_on_destroy)
    : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open", path, std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    fail("fstat", path, std::strerror(saved));
  }
  if (S_ISDIR(st.st_mode)) {
    ::close(fd);
    fail("open", path, "is a directory");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      fail("mmap", path, std::strerror(saved));
    }
    data_ = static_cast<const std::uint8_t*>(addr);
    mapped_ = true;
  }
  ::close(fd);
  remove_on_destroy_ = remove_on_destroy;
}

MmapFile::~MmapFile() {
  if (mapped_) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  if (remove_on_destroy_) std::remove(path_.c_str());
}

#endif

SpillWriter::SpillWriter(std::string path) : path_(std::move(path)) {
  fd_ = create_for_write(path_);
  if (fd_ < 0) fail("open", path_, std::strerror(errno));
}

SpillWriter::~SpillWriter() {
  if (sealed_) return;  // the file now belongs to the mapping
  if (fd_ >= 0) close_fd_raw(fd_);
  std::remove(path_.c_str());
}

void SpillWriter::append(const std::uint8_t* bytes, std::size_t n) {
  QSYN_CHECK(!sealed_, "SpillWriter is sealed: append rejected");
  if (n == 0) return;
  if (buffer_.size() + n > kSpillWriteBufferBytes) {
    flush();
    if (n >= kSpillWriteBufferBytes) {  // too big to buffer: write through
      write_all(bytes, n);
      return;
    }
  }
  if (buffer_.capacity() == 0) buffer_.reserve(kSpillWriteBufferBytes);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

std::shared_ptr<const MmapFile> SpillWriter::seal() {
  QSYN_CHECK(!sealed_, "SpillWriter is already sealed");
  flush();
  buffer_ = std::vector<std::uint8_t>();
  const int fd = fd_;
  fd_ = -1;
  if (close_fd_raw(fd) != 0) fail("close", path_, std::strerror(errno));
  std::shared_ptr<const MmapFile> file(
      new MmapFile(path_, /*remove_on_destroy=*/true));
  sealed_ = true;
  return file;
}

void SpillWriter::write_at(std::uint64_t offset, const std::uint8_t* bytes,
                           std::size_t n) {
  QSYN_CHECK(!sealed_, "SpillWriter is sealed: write_at rejected");
  write_fully(path_, bytes, n,
              [this, offset](const std::uint8_t* b, std::size_t k,
                             std::size_t done) {
                return write_some_at(fd_, b, k, offset + done);
              });
}

void SpillWriter::flush() {
  if (buffer_.empty()) return;
  write_all(buffer_.data(), buffer_.size());
  buffer_.clear();
}

void SpillWriter::write_all(const std::uint8_t* bytes, std::size_t n) {
  write_fully(path_, bytes, n,
              [this](const std::uint8_t* b, std::size_t k, std::size_t) {
                return write_some(fd_, b, k);
              });
}

SpillRangeWriter::SpillRangeWriter(SpillWriter& file, std::uint64_t offset,
                                   std::size_t bytes)
    : file_(file), next_(offset), left_(bytes) {
  buffer_.reserve(std::min(bytes, kSpillWriteBufferBytes));
}

void SpillRangeWriter::append(const std::uint8_t* bytes, std::size_t n) {
  QSYN_CHECK(n <= left_, "SpillRangeWriter: append past the end of its range");
  left_ -= n;
  if (buffer_.size() + n > buffer_.capacity()) {
    flush();
    if (n >= buffer_.capacity()) {  // too big to buffer: write through
      file_.write_at(next_, bytes, n);
      next_ += n;
      return;
    }
  }
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

void SpillRangeWriter::finish() {
  flush();
  QSYN_CHECK(left_ == 0, "SpillRangeWriter: range finished short of its end");
}

void SpillRangeWriter::flush() {
  if (buffer_.empty()) return;
  file_.write_at(next_, buffer_.data(), buffer_.size());
  next_ += buffer_.size();
  buffer_.clear();
}

}  // namespace qsyn::io
