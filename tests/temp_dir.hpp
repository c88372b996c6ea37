// A fresh, process-unique directory for a test's files: mkdtemp under the
// system temp dir, removed with everything in it on destruction. Two runs
// of a suite at once (two build trees' ctest, or parallel ctest --repeat)
// each get their own directory instead of deleting each other's files.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace burst {

class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "burst-test") {
    std::string name =
        (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
            .string();
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + name);
    }
    path_ = name;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace burst
