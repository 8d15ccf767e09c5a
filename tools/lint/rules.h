// Rule implementations for ddp_lint. R1-R7 are the original per-file rules,
// moved verbatim from the single-file linter so their diagnostics stay
// bit-compatible. R8-R11 are the cross-file rules built on the token-stream
// index: serde symmetry, frame-switch exhaustiveness, lock discipline across
// blocking calls, and metric/span name-registry drift.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/index.h"
#include "lint/source.h"

namespace ddp_lint {

constexpr std::string_view kRuleSqrt = "no-raw-sqrt";
constexpr std::string_view kRuleOrdered = "ordered-emission";
constexpr std::string_view kRuleMemOrder = "explicit-memory-order";
constexpr std::string_view kRuleNondet = "banned-nondeterminism";
constexpr std::string_view kRuleNames = "name-hygiene";
constexpr std::string_view kRuleHeader = "header-hygiene";
constexpr std::string_view kRuleProcess = "process-control";
constexpr std::string_view kRuleSerde = "serde-symmetry";
constexpr std::string_view kRuleFrame = "frame-exhaustive";
constexpr std::string_view kRuleLock = "lock-across-blocking";
constexpr std::string_view kRuleRegistry = "name-registry";
constexpr std::string_view kRuleNoReason = "suppression-missing-reason";
constexpr std::string_view kRuleUnused = "unused-suppression";

// Cross-file inputs shared by every per-file lint pass: enum definitions
// gathered from the whole input set (R9 resolves a switch in server.cc
// against the enum defined in channel.h), plus the parsed metric-name
// registry and observability doc (R11).
struct LintContext {
  std::map<std::string, std::vector<std::string>> enums;
  NameRegistry registry;
  DocNames doc;
};

void AddFinding(std::vector<Finding>* out, const SourceFile& f, size_t offset,
                std::string_view rule, std::string message);

// R1: raw sqrt/hypot in squared-space kernel directories.
void CheckNoRawSqrt(const SourceFile& f, std::vector<Finding>* out);
// R2: range-for over an unordered container in a scope that emits records.
void CheckOrderedEmission(const SourceFile& f, const SymbolInfo& info,
                          std::vector<Finding>* out);
// R3: atomic operations must name an explicit std::memory_order_*.
void CheckExplicitMemoryOrder(const SourceFile& f, const SymbolInfo& info,
                              std::vector<Finding>* out);
// R4: unseeded / wall-clock nondeterminism outside the sanctioned modules.
void CheckBannedNondeterminism(const SourceFile& f, std::vector<Finding>* out);
// R5: span/metric names are literal, lowercase, dot/underscore-separated.
void CheckNameHygiene(const SourceFile& f, std::vector<Finding>* out);
// R6: headers must use #pragma once and must not open namespaces wholesale.
void CheckHeaderHygiene(const SourceFile& f, std::vector<Finding>* out);
// R7: raw process-control and socket primitives confined to the worker
// subsystem.
void CheckProcessControl(const SourceFile& f, std::vector<Finding>* out);
// R8: Encode/Decode codec pairs must write and read the same field sequence.
void CheckSerdeSymmetry(const SourceFile& f, const FileIndex& idx,
                        std::vector<Finding>* out);
// R9: switches over frame-type enums must handle every enumerator or carry
// an annotated default.
void CheckFrameExhaustive(const SourceFile& f, const FileIndex& idx,
                          const LintContext& ctx, std::vector<Finding>* out);
// R10: no mutex guard held across channel/spill/socket blocking calls.
void CheckLockAcrossBlocking(const SourceFile& f, std::vector<Finding>* out);
// R11 (per file): metric/span literals and kMetric*/kSpan*/kCat* identifiers
// at observability call sites must resolve against the registry.
void CheckNameRegistry(const SourceFile& f, const FileIndex& idx,
                       const LintContext& ctx, std::vector<Finding>* out);
// R11 (cross file, run once): the registry and the observability doc tables
// must agree in both directions.
void CheckRegistryDocDrift(const LintContext& ctx, std::vector<Finding>* out);

// Runs every per-file rule over one loaded file, applies suppressions, and
// appends the surviving findings plus any suppression meta-findings. Takes
// the file non-const because matched suppressions are marked used in place.
void LintFile(SourceFile& f, const FileIndex& idx, const LintContext& ctx,
              std::vector<Finding>* findings);

struct RuleDoc {
  std::string_view id;
  std::string_view summary;
};

inline constexpr RuleDoc kRuleDocs[] = {
    {kRuleSqrt, "R1: sqrt/hypot banned in src/core, src/ddp, src/lsh"},
    {kRuleOrdered, "R2: unordered iteration feeding emission needs a sort"},
    {kRuleMemOrder, "R3: atomic ops must name a std::memory_order_*"},
    {kRuleNondet,
     "R4: rand/random_device/time/system_clock outside random.*, obs/"},
    {kRuleNames, "R5: span/metric name literals match [a-z0-9_.]+"},
    {kRuleHeader, "R6: headers use #pragma once, no using namespace"},
    {kRuleProcess,
     "R7: fork/exec/kill/waitpid/socket calls confined to src/mapreduce/ "
     "and src/server/"},
    {kRuleSerde,
     "R8: Encode/Decode pairs write and read the same field sequence"},
    {kRuleFrame,
     "R9: switches over frame-type enums handle every enumerator"},
    {kRuleLock,
     "R10: no lock held across CommChannel/SpillFileWriter/socket blocking"},
    {kRuleRegistry,
     "R11: metric/span names resolve against src/obs/metric_names.h and "
     "docs/observability.md"},
    {kRuleNoReason, "allow() without '-- <reason>' does not suppress"},
    {kRuleUnused, "allow() that suppresses nothing must be removed"},
};

}  // namespace ddp_lint
