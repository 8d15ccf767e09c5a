// ddp_lint — project-invariant static analyzer for the DDP codebase.
//
// The determinism contracts this tree depends on (squared-space kernels with
// one sqrt at final assembly, derivable shuffle/reduce ordering, explicit
// atomic memory orders, seeded randomness only) are enforced here as lint
// rules with file/line diagnostics. See docs/static-analysis.md for the rule
// catalogue and the rationale behind each rule.
//
// The implementation lives in tools/lint/: a comment/string-aware source
// loader (source.cc), a small C++ tokenizer (lexer.cc), per-file and
// cross-file symbol indexes (index.cc), and the rules themselves (rules.cc).
// This file is the driver: argument parsing, the two-phase lint (load and
// index everything, then run rules with cross-file context), and output.
//
// Rules:
//   no-raw-sqrt            R1  sqrt/hypot banned in src/core, src/ddp, src/lsh
//   ordered-emission       R2  unordered-container iteration feeding emission
//                              requires a sort in the same scope
//   explicit-memory-order  R3  atomic ops must name a std::memory_order_*
//   banned-nondeterminism  R4  rand()/random_device/time()/system_clock
//                              outside src/common/random.* and src/obs/
//   name-hygiene           R5  span/metric name literals match [a-z0-9_.]+
//   header-hygiene         R6  headers use #pragma once, no using namespace
//   process-control        R7  fork/exec/kill/waitpid and raw socket calls
//                              confined to src/mapreduce/, src/server/, and
//                              tools/ddp_worker.cc
//   serde-symmetry         R8  Encode/Decode codec pairs write and read the
//                              same wire-kind and field sequence
//   frame-exhaustive       R9  switches over frame-type enums handle every
//                              enumerator or carry an annotated default
//   lock-across-blocking   R10 no lock_guard/unique_lock held across
//                              CommChannel Send/Recv, spill writes, or raw
//                              ::connect/::accept
//   name-registry          R11 metric/span names at call sites resolve
//                              against src/obs/metric_names.h, which in turn
//                              agrees with docs/observability.md
//
// Suppression syntax, trailing the violating line or opening a comment block
// directly above it:
//   // ddp-lint: allow(<rule>) -- <reason>
// A reason is mandatory: an allow() without one does not suppress and is
// itself reported (suppression-missing-reason). Suppressions that match no
// finding are reported too (unused-suppression), so annotations cannot rot.
//
// Exit codes: 0 = clean, 1 = findings reported, 2 = usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/rules.h"
#include "lint/source.h"

namespace fs = std::filesystem;

namespace {

using namespace ddp_lint;

bool IsSourceFile(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: ddp_lint [--root DIR] [--format human|json] [--list-rules]\n"
      "                [--metric-registry FILE] [--metric-doc FILE] [file...]\n"
      "\n"
      "With --root, scans DIR/src DIR/tools DIR/tests DIR/bench\n"
      "DIR/ddp_bench (skipping lint fixtures). Explicit file arguments are\n"
      "scanned as given.\n"
      "The name-registry rule reads DIR/src/obs/metric_names.h and\n"
      "DIR/docs/observability.md by default; --metric-registry and\n"
      "--metric-doc override those paths (the rule is skipped when the\n"
      "registry does not exist).\n"
      "Exit codes: 0 clean, 1 findings, 2 usage/IO error.\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintHuman(const std::vector<Finding>& findings) {
  for (const Finding& fd : findings) {
    std::printf("%s:%zu: [%s] %s\n", fd.file.c_str(), fd.line, fd.rule.c_str(),
                fd.message.c_str());
  }
}

// Machine-readable diagnostics for CI artifacts. The `suppression` field is
// the exact comment that would suppress the finding, so a reviewer can copy
// it out of the CI log (filling in the reason).
void PrintJson(size_t num_files, const std::vector<Finding>& findings) {
  std::printf("{\n  \"files\": %zu,\n  \"findings\": [", num_files);
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& fd = findings[i];
    std::string suppression =
        "// ddp-lint: allow(" + fd.rule + ") -- <reason>";
    std::printf("%s\n    {\"path\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
                "\"message\": \"%s\", \"suppression\": \"%s\"}",
                i == 0 ? "" : ",", JsonEscape(fd.file).c_str(), fd.line,
                JsonEscape(fd.rule).c_str(), JsonEscape(fd.message).c_str(),
                JsonEscape(suppression).c_str());
  }
  std::printf("%s]\n}\n", findings.empty() ? "" : "\n  ");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string format = "human";
  std::string registry_path;  // --metric-registry override
  std::string doc_path;       // --metric-doc override
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage();
      root = argv[++i];
    } else if (arg == "--format") {
      if (i + 1 >= argc) return Usage();
      format = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--metric-registry") {
      if (i + 1 >= argc) return Usage();
      registry_path = argv[++i];
    } else if (arg == "--metric-doc") {
      if (i + 1 >= argc) return Usage();
      doc_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const RuleDoc& r : kRuleDocs) {
        std::printf("%-26s %s\n", std::string(r.id).c_str(),
                    std::string(r.summary).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (root.empty() && files.empty()) return Usage();
  if (format != "human" && format != "json") return Usage();

  // (fs_path, report_path) pairs; report paths are root-relative when
  // scanning a root so rule scoping and output stay stable across machines.
  std::vector<std::pair<std::string, std::string>> inputs;
  if (!root.empty()) {
    for (const char* sub : {"src", "tools", "tests", "bench", "ddp_bench"}) {
      fs::path dir = fs::path(root) / sub;
      if (!fs::exists(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
        std::string rel =
            fs::relative(entry.path(), fs::path(root)).generic_string();
        if (rel.find("lint_fixtures") != std::string::npos) continue;
        inputs.push_back({entry.path().string(), rel});
      }
    }
  }
  for (const std::string& fpath : files) {
    inputs.push_back({fpath, fs::path(fpath).generic_string()});
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Phase 1: load and index every input, then assemble the cross-file
  // context (enum definitions, the metric-name registry, the doc tables).
  bool io_error = false;
  std::vector<SourceFile> sources(inputs.size());
  std::vector<FileIndex> indexes(inputs.size());
  std::vector<bool> loaded(inputs.size(), false);
  LintContext ctx;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!LoadSource(inputs[i].first, inputs[i].second, &sources[i])) {
      std::fprintf(stderr, "ddp_lint: cannot read %s\n",
                   inputs[i].first.c_str());
      io_error = true;
      continue;
    }
    loaded[i] = true;
    indexes[i] = BuildFileIndex(sources[i]);
    for (const EnumDef& e : indexes[i].enums) {
      ctx.enums.emplace(e.name, e.enumerators);  // first definition wins
    }
  }
  {
    bool explicit_registry = !registry_path.empty();
    std::string reg_fs = registry_path;
    std::string reg_report = registry_path;
    if (reg_fs.empty() && !root.empty()) {
      reg_fs = (fs::path(root) / "src/obs/metric_names.h").string();
      reg_report = "src/obs/metric_names.h";
    }
    if (!reg_fs.empty()) {
      SourceFile reg_src;
      if (LoadSource(reg_fs, reg_report, &reg_src)) {
        ctx.registry = ParseRegistry(reg_src);
      } else if (explicit_registry) {
        std::fprintf(stderr, "ddp_lint: cannot read %s\n", reg_fs.c_str());
        io_error = true;
      }
    }
    bool explicit_doc = !doc_path.empty();
    std::string doc_fs = doc_path;
    std::string doc_report = doc_path;
    if (doc_fs.empty() && !root.empty()) {
      doc_fs = (fs::path(root) / "docs/observability.md").string();
      doc_report = "docs/observability.md";
    }
    if (!doc_fs.empty()) {
      if (!ParseDocNames(doc_fs, doc_report, &ctx.doc) && explicit_doc) {
        std::fprintf(stderr, "ddp_lint: cannot read %s\n", doc_fs.c_str());
        io_error = true;
      }
    }
  }

  // Phase 2: per-file rules plus the cross-file registry/doc consistency
  // pass (whose findings anchor in the registry header and the doc, and are
  // not suppressible from source comments).
  std::vector<Finding> findings;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!loaded[i]) continue;
    LintFile(sources[i], indexes[i], ctx, &findings);
  }
  CheckRegistryDocDrift(ctx, &findings);

  std::sort(findings.begin(), findings.end(), [](const auto& a, const auto& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  if (format == "json") {
    PrintJson(inputs.size(), findings);
  } else {
    PrintHuman(findings);
  }
  std::fprintf(stderr, "ddp_lint: %zu file(s), %zu finding(s)\n", inputs.size(),
               findings.size());
  if (io_error) return 2;
  return findings.empty() ? 0 : 1;
}
