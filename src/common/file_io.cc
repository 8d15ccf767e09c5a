#include "common/file_io.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace ddp {

Result<std::string> ReadWholeFile(const std::string& path) {
  // Sized by the file system, not by seeking an open stream: a directory
  // would open and report a bogus end offset.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) {
    return Status::NotFound("cannot open " + path +
                            (ec ? ": " + ec.message() : std::string()));
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    return Status::IoError("short read from " + path);
  }
  return bytes;
}

}  // namespace ddp
