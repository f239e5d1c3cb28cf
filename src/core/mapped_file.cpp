#include "core/mapped_file.hpp"

#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace edgewatch::core {

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
  if (data_ != nullptr) {
    if (mapped_) {
      ::munmap(data_, size_);
    } else {
      delete[] static_cast<std::byte*>(data_);
    }
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

Result<MappedFile> MappedFile::open(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno == ENOENT ? Errc::kNotFound : Errc::kIoError;
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errc::kIoError;
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ == 0) {
    ::close(fd);
    return file;  // empty file: empty view, nothing to map
  }
  void* map = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    file.data_ = map;
    file.mapped_ = true;
    ::close(fd);
    return file;
  }
  // Fallback: plain read into a heap buffer.
  auto* buffer = new (std::nothrow) std::byte[file.size_];
  if (buffer == nullptr) {
    ::close(fd);
    return Errc::kIoError;
  }
  std::size_t done = 0;
  while (done < file.size_) {
    const ::ssize_t n = ::read(fd, buffer + done, file.size_ - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      delete[] buffer;
      ::close(fd);
      return Errc::kIoError;
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  file.data_ = buffer;
  file.mapped_ = false;
  return file;
}

}  // namespace edgewatch::core
