#pragma once

// Open-descriptor probes for the suites that check spill files. Spill files
// have no names (O_TMPFILE), so an empty spill dir shows nothing about a
// leaked handle: a leak is an open descriptor. Linux links each of a
// process's descriptors at /proc/self/fd/<n>; a nameless file's link reads
// "<dir>/#<inode> (deleted)", and opening that path reopens the file.

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace ddp {

/// The calling process's open descriptors on files directly inside `dir`,
/// named or not, in ascending order.
inline std::vector<int> DescriptorsInto(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path want = fs::weakly_canonical(dir, ec);
  std::vector<int> fds;
  if (ec || want.empty()) return fds;
  for (const fs::directory_entry& entry :
       fs::directory_iterator("/proc/self/fd", ec)) {
    const fs::path target = fs::read_symlink(entry.path(), ec);
    if (!ec && target.parent_path() == want) {
      fds.push_back(std::stoi(entry.path().filename().string()));
    }
  }
  std::sort(fds.begin(), fds.end());
  return fds;
}

/// A path that reopens descriptor `fd`'s file, though it has no name.
inline std::string ReopenPath(int fd) {
  return "/proc/self/fd/" + std::to_string(fd);
}

}  // namespace ddp
