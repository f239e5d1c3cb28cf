// Collision-free scratch paths for tests.
//
// ctest runs every gtest case as its own process, concurrently under -j,
// so a fixed name ("ew_query_corpus") or one derived from an object
// address can be claimed by two processes at once: one deletes what the
// other is still writing. Every name built here combines the process id, a
// per-process counter and a random suffix.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>

namespace edgewatch::test {

/// A path under the system temp directory that no other process or call
/// will produce. Nothing is created.
inline std::filesystem::path unique_temp_path(std::string_view prefix) {
  static std::atomic<std::uint64_t> counter{0};
  std::random_device rd;
  char suffix[9];
  std::snprintf(suffix, sizeof suffix, "%08x", static_cast<unsigned>(rd()));
  return std::filesystem::temp_directory_path() /
         (std::string(prefix) + "_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1)) + "_" + suffix);
}

/// A fresh, empty directory at a unique_temp_path, removed with everything
/// in it when the object goes out of scope.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(std::string_view prefix = "ew_test") : path(unique_temp_path(prefix)) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace edgewatch::test
