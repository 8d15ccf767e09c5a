#pragma once

#include <string>

#include "common/result.h"

/// \file file_io.h
/// The one whole-file read: CSV and DDPB datasets and checkpoint entries
/// load through it.

namespace ddp {

/// Reads the regular file at `path` with one read into a string of exactly
/// the file's size. NotFound when it cannot be opened (missing, not a
/// regular file); IoError naming the path when it reads short.
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace ddp
