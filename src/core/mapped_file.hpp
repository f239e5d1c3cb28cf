// Read-only memory map of a whole file, for readers that walk a file's
// bytes in place instead of copying them through a read() buffer:
//
//   - query:: maps each .ewr rollup file and touches only the sections a
//     query projects, so an untouched column never costs a page-in;
//   - net::read_pcap walks a capture's records straight out of the mapping
//     and copies each frame's bytes exactly once, into the caller's frame.
//
// The size is taken once, at open(). The mapping is MAP_PRIVATE over the
// file as it is then: a reader must not touch bytes past size(), and the
// file must not shrink while it is mapped (pages beyond the new end fault
// with SIGBUS on access). Growing the file is harmless; the new bytes are
// simply not seen. Move-only; the mapping is released on destruction.
// Falls back to a heap read when mmap is unavailable for the file (e.g.
// some pseudo-filesystems).
#pragma once

#include <cstddef>
#include <filesystem>
#include <span>

#include "core/result.hpp"

namespace edgewatch::core {

class MappedFile {
 public:
  MappedFile() noexcept = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Map `path` read-only. kNotFound when absent, kIoError otherwise.
  [[nodiscard]] static Result<MappedFile> open(const std::filesystem::path& path);

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {static_cast<const std::byte*>(data_), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void reset() noexcept;

  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< true: munmap on destroy; false: delete[] fallback.
};

}  // namespace edgewatch::core
