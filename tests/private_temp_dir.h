// A scratch directory per test process, for tests that write files.

#ifndef DOPPLER_TESTS_PRIVATE_TEMP_DIR_H_
#define DOPPLER_TESTS_PRIVATE_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace doppler {

// A fresh directory under TempDir() that only this test process uses:
// ctest runs every case in its own process, several at a time, so fixed
// names under TempDir() race. Removed with its contents on destruction.
class PrivateTempDir {
 public:
  PrivateTempDir() {
    std::string pattern = testing::TempDir() + "/doppler_test_XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~PrivateTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  PrivateTempDir(const PrivateTempDir&) = delete;
  PrivateTempDir& operator=(const PrivateTempDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace doppler

#endif  // DOPPLER_TESTS_PRIVATE_TEMP_DIR_H_
