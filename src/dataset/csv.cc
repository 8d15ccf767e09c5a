#include "dataset/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/file_io.h"

namespace ddp {

namespace {

constexpr char kLabelMarker[] = "# labels: last column";

// Splits a line on commas/spaces/tabs into double tokens.
// Returns false on a malformed numeric token.
bool ParseRow(const std::string& line, std::vector<double>* out) {
  out->clear();
  const char* p = line.c_str();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && (*p == ',' || *p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p >= end) break;
    char* next = nullptr;
    errno = 0;
    double v = std::strtod(p, &next);
    if (next == p || errno == ERANGE) return false;
    out->push_back(v);
    p = next;
  }
  return true;
}

}  // namespace

Result<Dataset> ParseCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::vector<double> row;
  size_t dim = 0;
  std::vector<double> values;
  std::vector<int> labels;
  bool labeled = false;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (dim == 0 && line == kLabelMarker) labeled = true;
    if (line.empty() || line[0] == '#') continue;
    if (!ParseRow(line, &row)) {
      return Status::IoError("malformed number at line " +
                             std::to_string(line_no));
    }
    if (row.empty()) continue;
    size_t width = row.size();
    size_t coord_width = labeled ? width - 1 : width;
    if (labeled && width < 2) {
      return Status::IoError("label column marked but row has " +
                             std::to_string(width) + " columns at line " +
                             std::to_string(line_no));
    }
    if (dim == 0) {
      dim = coord_width;
    } else if (coord_width != dim) {
      return Status::IoError("inconsistent row width at line " +
                             std::to_string(line_no));
    }
    values.insert(values.end(), row.begin(),
                  row.begin() + static_cast<std::ptrdiff_t>(coord_width));
    if (labeled) labels.push_back(static_cast<int>(row.back()));
  }
  if (dim == 0) return Status::IoError("no data rows");
  DDP_ASSIGN_OR_RETURN(Dataset ds, Dataset::FromValues(dim, std::move(values)));
  if (labeled) ds.set_labels(std::move(labels));
  return ds;
}

Result<Dataset> ReadCsvFile(const std::string& path) {
  Result<std::string> text = ReadWholeFile(path);
  if (!text.ok()) return Status::IoError(text.status().message());
  return ParseCsv(*text);
}

Status WriteCsvFile(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.precision(17);
  if (dataset.has_labels()) out << kLabelMarker << '\n';
  for (size_t i = 0; i < dataset.size(); ++i) {
    std::span<const double> p = dataset.point(static_cast<PointId>(i));
    for (size_t d = 0; d < p.size(); ++d) {
      if (d > 0) out << ',';
      out << p[d];
    }
    if (dataset.has_labels()) out << ',' << dataset.label(static_cast<PointId>(i));
    out << '\n';
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace ddp
