#pragma once

// Per-test temporary directory. ctest runs every gtest case as its own
// process, many at once under `ctest -j`, so a fixed /tmp path shared by
// two cases lets one case's cleanup delete the other's files mid-run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace insitu::test_util {

/// A fresh, empty directory under the system temp dir, named after the
/// running test and process; removed with everything in it on
/// destruction.
class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "insitu_";
    if (info != nullptr) {
      name += std::string(info->test_suite_name()) + "." + info->name() + ".";
    }
    name += std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// The directory itself.
  std::string str() const { return path_.string(); }
  /// `child` inside the directory.
  std::string file(const std::string& child) const {
    return (path_ / child).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace insitu::test_util
