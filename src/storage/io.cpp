#include "storage/io.hpp"

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

namespace edgewatch::storage {

namespace {

core::Errc errc_from_errno(int err) noexcept {
  return err == ENOSPC ? core::Errc::kNoSpace : core::Errc::kIoError;
}

class PosixFile final : public WritableFile {
 public:
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  core::Result<void> open_at(const std::filesystem::path& path,
                             std::uint64_t offset) override {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) return errc_from_errno(errno);
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      return errc_from_errno(err);
    }
    return {};
  }

  core::Result<void> write(std::span<const std::byte> data) override {
    if (fd_ < 0) return core::Errc::kIoError;
    std::size_t done = 0;
    while (done < data.size()) {
      const ::ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errc_from_errno(errno);
      }
      done += static_cast<std::size_t>(n);
      written_ += static_cast<std::uint64_t>(n);
    }
    return {};
  }

  core::Result<void> sync() override {
    if (fd_ < 0) return core::Errc::kIoError;
    if (::fsync(fd_) != 0) return errc_from_errno(errno);
    return {};
  }

  core::Result<void> truncate(std::uint64_t size) override {
    if (fd_ < 0) return core::Errc::kIoError;
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) return errc_from_errno(errno);
    return {};
  }

  core::Result<void> close() override {
    if (fd_ < 0) return core::Errc::kIoError;
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc == 0 ? core::Result<void>{} : core::Result<void>{core::Errc::kIoError};
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept override { return written_; }

 private:
  int fd_ = -1;
  std::uint64_t written_ = 0;
};

}  // namespace

std::unique_ptr<WritableFile> make_posix_file() { return std::make_unique<PosixFile>(); }

}  // namespace edgewatch::storage
