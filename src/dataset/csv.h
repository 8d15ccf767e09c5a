#pragma once

#include <string>

#include "common/result.h"
#include "dataset/dataset.h"

/// \file csv.h
/// Plain-text point IO. Each line is one point: numeric coordinates separated
/// by commas, spaces, or tabs. Blank lines and lines starting with '#' are
/// skipped, except the label marker: a `# labels: last column` line before
/// the first row says the last column of every row is an integer
/// ground-truth label. WriteCsvFile writes the marker for labeled datasets,
/// so they read back with their dimension and labels.

namespace ddp {

/// Parses `text` into a Dataset. All rows must have the same width.
Result<Dataset> ParseCsv(const std::string& text);

/// Reads and parses a file.
Result<Dataset> ReadCsvFile(const std::string& path);

/// Writes a dataset (labels appended as a last column, under the label
/// marker, when present).
Status WriteCsvFile(const std::string& path, const Dataset& dataset);

}  // namespace ddp
