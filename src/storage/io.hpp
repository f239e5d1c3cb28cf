// Durable write-path abstraction for the data lake.
//
// The lake's appends go through a WritableFile so that (a) the real
// implementation can fsync — the paper's pipeline survived five years of
// probe crashes only because data reaching "the disk" actually reached the
// disk — and (b) tests can substitute storage::FaultyFile and inject the
// short writes, ENOSPC, bit flips and mid-write crashes that a long-running
// deployment eventually sees (fault_injection.hpp).
//
// Contract: open_at() truncates the file to `offset` and positions the
// cursor there (offset 0 == create/replace). write() either persists the
// whole span or returns an error; after an error the file's tail past the
// last successful byte is undefined ("torn"). truncate() supports rollback:
// an append that fails mid-way restores the pre-append length, making the
// append atomic whenever the process survives the failure.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>

#include "core/result.hpp"

namespace edgewatch::storage {

class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Truncate `path` to `offset` bytes (creating it if needed) and position
  /// the write cursor at `offset`.
  virtual core::Result<void> open_at(const std::filesystem::path& path,
                                     std::uint64_t offset) = 0;
  virtual core::Result<void> write(std::span<const std::byte> data) = 0;
  /// Flush to stable storage (fsync).
  virtual core::Result<void> sync() = 0;
  /// Cut the file back to `size` bytes (rollback of a failed append).
  virtual core::Result<void> truncate(std::uint64_t size) = 0;
  virtual core::Result<void> close() = 0;

  /// Bytes successfully written through this handle since open_at().
  [[nodiscard]] virtual std::uint64_t bytes_written() const noexcept = 0;
};

/// The real thing: POSIX fd with write-retry on EINTR/short writes and
/// fsync-backed sync(). ENOSPC maps to Errc::kNoSpace.
[[nodiscard]] std::unique_ptr<WritableFile> make_posix_file();

/// How DataLake obtains its write handles; tests swap in fault injectors.
using FileFactory = std::function<std::unique_ptr<WritableFile>()>;

}  // namespace edgewatch::storage
