#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>

namespace ddp_lint {

void AddFinding(std::vector<Finding>* out, const SourceFile& f, size_t offset,
                std::string_view rule, std::string message) {
  out->push_back(
      {f.path, LineOfOffset(f, offset), std::string(rule), std::move(message)});
}

// R1: raw sqrt/hypot in squared-space kernel directories.
void CheckNoRawSqrt(const SourceFile& f, std::vector<Finding>* out) {
  if (!PathContains(f.path, "src/core") && !PathContains(f.path, "src/ddp") &&
      !PathContains(f.path, "src/lsh")) {
    return;
  }
  for (const char* fn :
       {"sqrt", "sqrtf", "sqrtl", "hypot", "hypotf", "hypotl"}) {
    for (size_t pos : FindWord(f.code, fn)) {
      size_t after = SkipSpace(f.code, pos + std::strlen(fn));
      if (after >= f.code.size() || f.code[after] != '(') continue;
      AddFinding(out, f, pos, kRuleSqrt,
                 std::string(fn) +
                     "() in squared-space kernel code; keep distances in d^2 "
                     "and take one sqrt at final assembly (annotate that site)");
    }
  }
}

// R2: range-for over an unordered container in a scope that emits records.
void CheckOrderedEmission(const SourceFile& f, const SymbolInfo& info,
                          std::vector<Finding>* out) {
  if (!PathContains(f.path, "src/")) return;
  if (PathContains(f.path, "src/obs/")) return;  // no pipeline records
  static const std::vector<std::string> kEmitters = {
      "Emit",       "SerializeTo", "push_back", "emplace_back",
      "PutVarint32", "PutVarint64", "PutByte",  "PutRaw",
      "PutDouble",  "PutFloat",    "WriteRecord", "Write", "Append"};
  static const std::vector<std::string> kSorters = {"sort", "stable_sort",
                                                    "partial_sort"};
  const std::string& code = f.code;
  for (size_t pos : FindWord(code, "for")) {
    size_t open = SkipSpace(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    size_t close = MatchParen(code, open);
    if (close == std::string::npos) continue;
    std::string head = code.substr(open + 1, close - open - 2);
    // Find the range-for ':' at paren/angle depth 0, not part of '::'.
    size_t colon = std::string::npos;
    int depth = 0;
    for (size_t i = 0; i < head.size(); ++i) {
      char c = head[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') ||
            (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::string range = head.substr(colon + 1);
    bool tainted = false;
    for (size_t i = 0; i < range.size();) {
      if (IsIdentChar(range[i])) {
        std::string id = ReadIdent(range, i);
        size_t j = SkipSpace(range, i + id.size());
        char after = j < range.size() ? range[j] : '\0';
        // Bare iteration over the container is hash-order; subscripting or
        // member access (m[k], m.at(k)) yields a value whose own order is
        // the value type's, not the hash table's.
        if (info.unordered_vars.count(id) > 0 && after != '[' && after != '.' &&
            after != '(' && !(after == '-' && j + 1 < range.size() &&
                              range[j + 1] == '>')) {
          tainted = true;
        }
        // ...except when the *element* type is unordered: v[m] is a table.
        if (info.unordered_elem_vars.count(id) > 0 && after == '[') {
          tainted = true;
        }
        i += id.size();
      } else {
        ++i;
      }
    }
    if (!tainted) continue;
    auto scope = EnclosingBlock(code, pos);
    if (!ScopeHas(code, scope, kEmitters, /*call_only=*/true)) continue;
    if (ScopeHas(code, scope, kSorters, /*call_only=*/true)) continue;
    AddFinding(out, f, pos, kRuleOrdered,
               "iteration over an unordered container in a scope that emits "
               "records, with no sort in scope; emission order must be "
               "derivable, not hash-order");
  }
}

// R3: atomic operations must name an explicit std::memory_order_*.
void CheckExplicitMemoryOrder(const SourceFile& f, const SymbolInfo& info,
                              std::vector<Finding>* out) {
  static const std::vector<std::string> kOps = {
      "load",      "store",      "exchange",
      "fetch_add", "fetch_sub",  "fetch_and",
      "fetch_or",  "fetch_xor",  "compare_exchange_weak",
      "compare_exchange_strong"};
  const std::string& code = f.code;
  for (const std::string& op : kOps) {
    for (size_t pos : FindWord(code, op)) {
      // Member call only: preceded by '.' or '->'.
      bool member = (pos >= 1 && code[pos - 1] == '.') ||
                    (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>');
      if (!member) continue;
      size_t open = SkipSpace(code, pos + op.size());
      if (open >= code.size() || code[open] != '(') continue;
      size_t close = MatchParen(code, open);
      if (close == std::string::npos) continue;
      std::string args = code.substr(open, close - open);
      if (args.find("memory_order") != std::string::npos) continue;
      AddFinding(out, f, pos, kRuleMemOrder,
                 "atomic " + op +
                     "() without an explicit std::memory_order_* argument "
                     "(implicit seq_cst hides the intended ordering)");
    }
  }
  // ++/--/+=/-= on a variable declared std::atomic in this file, within the
  // scope of that declaration.
  for (const auto& [var, scopes] : info.atomic_vars) {
    for (size_t pos : FindWord(code, var)) {
      bool in_scope = false;
      for (const auto& [open, close] : scopes) {
        if (pos >= open && pos < close) in_scope = true;
      }
      if (!in_scope) continue;
      size_t after = SkipSpace(code, pos + var.size());
      bool hit = false;
      if (after + 1 < code.size()) {
        std::string_view two(code.data() + after, 2);
        if (two == "++" || two == "--" || two == "+=" || two == "-=") {
          hit = true;
        }
      }
      if (!hit && pos >= 2) {
        std::string_view two(code.data() + pos - 2, 2);
        if (two == "++" || two == "--") hit = true;
      }
      if (hit) {
        AddFinding(out, f, pos, kRuleMemOrder,
                   "implicit seq_cst increment/decrement of atomic '" + var +
                       "'; use fetch_add/fetch_sub with an explicit "
                       "std::memory_order_*");
      }
    }
  }
}

// R4: unseeded / wall-clock nondeterminism outside the sanctioned modules.
void CheckBannedNondeterminism(const SourceFile& f, std::vector<Finding>* out) {
  if (PathContains(f.path, "src/common/random.") ||
      PathContains(f.path, "src/obs/")) {
    return;
  }
  struct Banned {
    const char* word;
    bool call_only;
    const char* why;
  };
  static const Banned kBanned[] = {
      {"rand", true, "use ddp::Rng seeded from Options"},
      {"srand", true, "use ddp::Rng seeded from Options"},
      {"random_device", false, "use ddp::Rng seeded from Options"},
      {"time", true, "wall-clock input makes runs unreproducible"},
      {"system_clock", false, "wall-clock input makes runs unreproducible"},
  };
  for (const Banned& b : kBanned) {
    for (size_t pos : FindWord(f.code, b.word)) {
      if (b.call_only) {
        size_t after = SkipSpace(f.code, pos + std::strlen(b.word));
        if (after >= f.code.size() || f.code[after] != '(') continue;
      }
      AddFinding(out, f, pos, kRuleNondet,
                 std::string(b.word) + " is a banned nondeterminism source: " +
                     b.why);
    }
  }
}

// R5: span/metric names are literal, lowercase, dot/underscore-separated.
void CheckNameHygiene(const SourceFile& f, std::vector<Finding>* out) {
  static const std::vector<std::string> kApis = {
      "DDP_TRACE_SPAN",        "DDP_TRACE_SCOPE",
      "DDP_METRIC_COUNTER_ADD", "DDP_METRIC_HISTOGRAM_SECONDS",
      "DDP_METRIC_HISTOGRAM_RECORD", "GetCounter", "GetGauge", "GetHistogram"};
  const std::string& code = f.code;
  auto check_args = [&](size_t open, size_t close) {
    // Offsets agree between raw and code, so read literals from raw where the
    // scrubbed view is blank.
    for (size_t i = open; i < close; ++i) {
      if (f.raw[i] != '"') continue;
      size_t end = i + 1;
      while (end < close && f.raw[end] != '"') {
        if (f.raw[end] == '\\') ++end;
        ++end;
      }
      std::string lit = f.raw.substr(i + 1, end - i - 1);
      bool ok = !lit.empty();
      for (char c : lit) {
        if (!(islower(static_cast<unsigned char>(c)) ||
              isdigit(static_cast<unsigned char>(c)) || c == '_' || c == '.')) {
          ok = false;
        }
      }
      if (!ok) {
        AddFinding(out, f, i, kRuleNames,
                   "span/metric name \"" + lit +
                       "\" must match [a-z0-9_.]+ so exported traces and "
                       "metric keys stay greppable and collator-safe");
      }
      i = end;
    }
  };
  for (const std::string& api : kApis) {
    for (size_t pos : FindWord(code, api)) {
      size_t open = SkipSpace(code, pos + api.size());
      if (open >= code.size() || code[open] != '(') continue;
      size_t close = MatchParen(code, open);
      if (close == std::string::npos) continue;
      check_args(open, close);
    }
  }
  // Direct obs::Span construction: "Span name(...)" with literal args.
  for (size_t pos : FindWord(code, "Span")) {
    size_t i = SkipSpace(code, pos + 4);
    std::string name = ReadIdent(code, i);
    if (!name.empty()) i = SkipSpace(code, i + name.size());
    if (i >= code.size() || code[i] != '(') continue;
    size_t close = MatchParen(code, i);
    if (close == std::string::npos) continue;
    check_args(i, close);
  }
}

// R6: headers must use #pragma once and must not open namespaces wholesale.
void CheckHeaderHygiene(const SourceFile& f, std::vector<Finding>* out) {
  if (!IsHeader(f.path)) return;
  if (f.code.find("#pragma once") == std::string::npos) {
    out->push_back({f.path, 1, std::string(kRuleHeader),
                    "header is missing #pragma once"});
  }
  for (size_t pos : FindWord(f.code, "using")) {
    size_t i = SkipSpace(f.code, pos + 5);
    if (f.code.compare(i, 9, "namespace") == 0) {
      AddFinding(out, f, pos, kRuleHeader,
                 "using namespace in a header leaks into every includer");
    }
  }
}

// R7: raw process-control and socket primitives are confined to
// src/mapreduce/ and src/server/. In src/mapreduce/ the worker supervisor
// owns the process lifecycle (spawn, heartbeat, kill, reap) and CommChannel
// owns the transport. A fork/kill/waitpid anywhere else escapes the
// crash-fault model: it creates children the supervisor will never reap, or
// signals pids whose ownership it cannot see. A raw socket/bind/connect
// bypasses the framed, CRC-trailed channel protocol and its link-loss
// semantics. src/server/ builds the serving daemon on those primitives and
// shares the exemption. Use the CommChannel/WorkerSupervisor API (or
// mr::SpawnWorkerProcess, or mr::CrashSelf in chaos tests) elsewhere.
void CheckProcessControl(const SourceFile& f, std::vector<Finding>* out) {
  if (PathContains(f.path, "src/mapreduce/") ||
      PathContains(f.path, "src/server/")) {
    return;
  }
  static const std::vector<std::string> kCalls = {
      "fork",   "vfork",  "execl",       "execlp",       "execle",
      "execv",  "execvp", "execve",      "execvpe",      "kill",
      "killpg", "wait",   "waitpid",     "wait3",        "wait4",
      "waitid", "system", "posix_spawn", "posix_spawnp", "socket",
      "socketpair", "bind", "listen",    "connect",      "accept",
      "accept4",
  };
  for (const std::string& fn : kCalls) {
    for (size_t pos : FindWord(f.code, fn)) {
      size_t after = SkipSpace(f.code, pos + fn.size());
      if (after >= f.code.size() || f.code[after] != '(') continue;
      // Free calls only: cv.wait(lock) or queue->kill(id) are member
      // functions of unrelated types, not the POSIX primitives.
      bool member = (pos >= 1 && f.code[pos - 1] == '.') ||
                    (pos >= 2 && f.code[pos - 2] == '-' &&
                     f.code[pos - 1] == '>');
      if (member) continue;
      // Declarations, not calls: `void listen(int)` / `Status bind(...)`.
      // A call cannot be directly preceded by a type or identifier token —
      // unless that token is a statement keyword (`return connect(...)`).
      size_t before = pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(f.code[before - 1]))) {
        --before;
      }
      if (before > 0) {
        const char prev = f.code[before - 1];
        if (prev == '*' || prev == '&') continue;  // `int* accept(`
        if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
          size_t start = before;
          while (start > 0 &&
                 (std::isalnum(static_cast<unsigned char>(f.code[start - 1])) ||
                  f.code[start - 1] == '_')) {
            --start;
          }
          const std::string_view word(f.code.data() + start, before - start);
          static constexpr std::string_view kStmtKeywords[] = {
              "return", "throw", "case", "else", "do",
              "co_return", "co_await", "co_yield",
          };
          const bool keyword =
              std::find(std::begin(kStmtKeywords), std::end(kStmtKeywords),
                        word) != std::end(kStmtKeywords);
          if (!keyword) continue;
        }
      }
      AddFinding(out, f, pos, kRuleProcess,
                 fn +
                     "() outside src/mapreduce/ or src/server/; process "
                     "lifecycle belongs to the worker supervisor (use the "
                     "CommChannel/WorkerSupervisor API)");
    }
  }
}

// ---------------------------------------------------------------------------
// R8: serde symmetry.
// ---------------------------------------------------------------------------

namespace {

std::string FormatOps(const std::vector<SerdeOp>& ops) {
  std::string s;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) s += ", ";
    s += ops[i].kind;
    if (!ops[i].name.empty()) s += "(" + ops[i].name + ")";
  }
  return s;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string s;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) s += ", ";
    s += names[i];
  }
  return s;
}

// Field names that appear exactly once on each side; the relative order of
// these must agree. Loop bodies and length prefixes use side-local temps
// (n, e, i), which the once-on-both-sides filter drops naturally.
std::vector<std::string> CommonNames(const std::vector<SerdeOp>& a,
                                     const std::vector<SerdeOp>& b,
                                     const std::vector<SerdeOp>& order_of) {
  std::map<std::string, int> ca, cb;
  for (const SerdeOp& op : a) {
    if (!op.name.empty()) ++ca[op.name];
  }
  for (const SerdeOp& op : b) {
    if (!op.name.empty()) ++cb[op.name];
  }
  std::vector<std::string> out;
  for (const SerdeOp& op : order_of) {
    if (op.name.empty()) continue;
    auto ia = ca.find(op.name);
    auto ib = cb.find(op.name);
    if (ia != ca.end() && ia->second == 1 && ib != cb.end() &&
        ib->second == 1) {
      out.push_back(op.name);
    }
  }
  return out;
}

}  // namespace

void CheckSerdeSymmetry(const SourceFile& f, const FileIndex& idx,
                        std::vector<Finding>* out) {
  for (const CodecPair& pair : idx.codec_pairs) {
    const CodecFn& enc = pair.encode;
    const CodecFn& dec = pair.decode;
    std::vector<std::string> enc_kinds, dec_kinds;
    for (const SerdeOp& op : enc.ops) enc_kinds.push_back(op.kind);
    for (const SerdeOp& op : dec.ops) dec_kinds.push_back(op.kind);
    if (enc_kinds != dec_kinds) {
      AddFinding(out, f, dec.offset, kRuleSerde,
                 "codec for '" + enc.owner + "' is asymmetric: " + enc.fn +
                     "() writes [" + FormatOps(enc.ops) + "] but " + dec.fn +
                     "() reads [" + FormatOps(dec.ops) + "]");
      continue;
    }
    std::vector<std::string> enc_names = CommonNames(enc.ops, dec.ops, enc.ops);
    std::vector<std::string> dec_names = CommonNames(enc.ops, dec.ops, dec.ops);
    if (enc_names != dec_names) {
      AddFinding(out, f, dec.offset, kRuleSerde,
                 "codec for '" + enc.owner + "' reads fields out of order: " +
                     enc.fn + "() writes [" + JoinNames(enc_names) + "] but " +
                     dec.fn + "() reads [" + JoinNames(dec_names) + "]");
    }
  }
}

// ---------------------------------------------------------------------------
// R9: frame-switch exhaustiveness.
// ---------------------------------------------------------------------------

void CheckFrameExhaustive(const SourceFile& f, const FileIndex& idx,
                          const LintContext& ctx, std::vector<Finding>* out) {
  for (const SwitchStmt& sw : idx.switches) {
    // Only frame-protocol enums: a StatusCode or LogLevel switch may
    // legitimately collapse cases, but an unhandled frame type is a protocol
    // hole — a peer can send a frame the receiver silently mishandles.
    if (sw.enum_name != "MessageType" && sw.enum_name != "FrameType") {
      continue;
    }
    auto it = ctx.enums.find(sw.enum_name);
    if (it == ctx.enums.end()) continue;
    std::vector<std::string> missing;
    for (const std::string& e : it->second) {
      if (std::find(sw.cases.begin(), sw.cases.end(), e) == sw.cases.end()) {
        missing.push_back(e);
      }
    }
    if (missing.empty()) continue;
    if (sw.has_default) {
      AddFinding(out, f, sw.default_offset, kRuleFrame,
                 "default on a switch over " + sw.enum_name +
                     " hides unhandled frame types [" + JoinNames(missing) +
                     "]; handle them or annotate the default");
    } else {
      AddFinding(out, f, sw.offset, kRuleFrame,
                 "switch over " + sw.enum_name + " does not handle [" +
                     JoinNames(missing) +
                     "]; handle every frame type or add an annotated default");
    }
  }
}

// ---------------------------------------------------------------------------
// R10: lock held across blocking calls.
// ---------------------------------------------------------------------------

void CheckLockAcrossBlocking(const SourceFile& f, std::vector<Finding>* out) {
  const std::string& code = f.code;
  // Variables of SpillFileWriter type declared in this file; member calls on
  // them do disk I/O (and can stall on a full disk or slow volume).
  std::set<std::string> spill_vars;
  for (size_t pos : FindWord(code, "SpillFileWriter")) {
    size_t i = SkipSpace(code, pos + std::strlen("SpillFileWriter"));
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      i = SkipSpace(code, i + 1);
    }
    std::string name = ReadIdent(code, i);
    if (!name.empty()) spill_vars.insert(name);
  }
  for (const char* kw : {"lock_guard", "unique_lock", "scoped_lock"}) {
    for (size_t pos : FindWord(code, kw)) {
      size_t i = SkipSpace(code, pos + std::strlen(kw));
      if (i < code.size() && code[i] == '<') {
        i = SkipAngles(code, i);
        if (i == std::string::npos) continue;
        i = SkipSpace(code, i);
      }
      std::string var = ReadIdent(code, i);
      if (var.empty()) continue;
      size_t open = SkipSpace(code, i + var.size());
      if (open >= code.size() || code[open] != '(') continue;
      size_t close = MatchParen(code, open);
      if (close == std::string::npos) continue;
      // std::defer_lock means the guard does not hold the mutex here.
      if (code.substr(open, close - open).find("defer_lock") !=
          std::string::npos) {
        continue;
      }
      auto scope = EnclosingBlock(code, pos);
      size_t region_end = scope.second;
      // An explicit early release ends the critical section.
      for (size_t vp : FindWord(code, var, close, scope.second)) {
        if (vp + var.size() < code.size() && code[vp + var.size()] == '.') {
          std::string m = ReadIdent(code, vp + var.size() + 1);
          if (m == "unlock" || m == "release") {
            region_end = vp;
            break;
          }
        }
      }
      auto report = [&](size_t at, const std::string& what) {
        AddFinding(out, f, at, kRuleLock,
                   "lock '" + var + "' is held across blocking " + what +
                       "; move the I/O outside the critical section or "
                       "annotate why holding is required");
      };
      // Channel I/O: member Send/Recv/Accept calls.
      for (const char* m : {"Send", "Recv", "Accept"}) {
        for (size_t mp : FindWord(code, m, close, region_end)) {
          bool member =
              (mp >= 1 && code[mp - 1] == '.') ||
              (mp >= 2 && code[mp - 2] == '-' && code[mp - 1] == '>');
          if (!member) continue;
          size_t a = SkipSpace(code, mp + std::strlen(m));
          if (a < code.size() && code[a] == '(') {
            report(mp, std::string(m) + "()");
          }
        }
      }
      // Raw socket waits: ::connect / ::accept.
      for (const char* c2 : {"connect", "accept"}) {
        for (size_t mp : FindWord(code, c2, close, region_end)) {
          if (!(mp >= 2 && code[mp - 1] == ':' && code[mp - 2] == ':')) {
            continue;
          }
          size_t a = SkipSpace(code, mp + std::strlen(c2));
          if (a < code.size() && code[a] == '(') {
            report(mp, std::string("::") + c2 + "()");
          }
        }
      }
      // Spill writes: any member call on a SpillFileWriter variable.
      for (const std::string& sv : spill_vars) {
        for (size_t vp : FindWord(code, sv, close, region_end)) {
          size_t a = vp + sv.size();
          size_t m_at = 0;
          if (a < code.size() && code[a] == '.') {
            m_at = a + 1;
          } else if (a + 1 < code.size() && code[a] == '-' &&
                     code[a + 1] == '>') {
            m_at = a + 2;
          } else {
            continue;
          }
          std::string m = ReadIdent(code, m_at);
          size_t b = SkipSpace(code, m_at + m.size());
          if (!m.empty() && b < code.size() && code[b] == '(') {
            report(vp, "SpillFileWriter::" + m + "()");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R11: name-registry drift.
// ---------------------------------------------------------------------------

namespace {

// Metric literals are checked only when they look like complete names
// (at least one interior dot); concatenation fragments like "server.job."
// and ".mr_jobs" are built up dynamically and cannot be resolved statically.
bool LooksLikeFullMetricName(const std::string& lit) {
  if (lit.find('.') == std::string::npos) return false;
  if (lit.front() == '.' || lit.back() == '.') return false;
  return true;
}

}  // namespace

void CheckNameRegistry(const SourceFile& f, const FileIndex& idx,
                       const LintContext& ctx, std::vector<Finding>* out) {
  if (!ctx.registry.present) return;
  if (!PathContains(f.path, "src/")) return;
  if (PathContains(f.path, "metric_names.h")) return;
  for (const NameSite& site : idx.name_sites) {
    for (const auto& [lit, offset] : site.literals) {
      if (site.kind == NameSite::Kind::kMetric) {
        if (!LooksLikeFullMetricName(lit)) continue;
        if (!ctx.registry.HasMetric(lit)) {
          AddFinding(out, f, offset, kRuleRegistry,
                     "metric name \"" + lit +
                         "\" is not in the metric-name registry; register it "
                         "and reference the constant");
        }
      } else {
        if (!ctx.registry.HasSpanOrCategory(lit)) {
          AddFinding(out, f, offset, kRuleRegistry,
                     "span name \"" + lit +
                         "\" is not a registered span name or category; "
                         "register it and reference the constant");
        }
      }
    }
    for (const auto& [ident, offset] : site.idents) {
      if (!ctx.registry.HasConstant(ident)) {
        AddFinding(out, f, offset, kRuleRegistry,
                   "'" + ident +
                       "' is not defined in the metric-name registry");
      }
    }
  }
}

void CheckRegistryDocDrift(const LintContext& ctx, std::vector<Finding>* out) {
  if (!ctx.registry.present || !ctx.doc.present) return;
  const NameRegistry& reg = ctx.registry;
  const DocNames& doc = ctx.doc;
  for (const RegistryEntry& e : reg.metrics) {
    if (!doc.HasMetric(e.literal)) {
      out->push_back({reg.path, e.line, std::string(kRuleRegistry),
                      "registry metric \"" + e.literal +
                          "\" is missing from the observability doc"});
    }
  }
  for (const RegistryEntry& e : reg.spans) {
    if (!doc.HasSpan(e.literal)) {
      out->push_back({reg.path, e.line, std::string(kRuleRegistry),
                      "registry span \"" + e.literal +
                          "\" is missing from the observability doc"});
    }
  }
  for (const RegistryEntry& e : reg.categories) {
    if (!doc.HasCategory(e.literal)) {
      out->push_back({reg.path, e.line, std::string(kRuleRegistry),
                      "registry category \"" + e.literal +
                          "\" is missing from the observability doc"});
    }
  }
  for (const auto& [name, line] : doc.metrics) {
    if (!reg.HasMetric(name)) {
      out->push_back({doc.path, line, std::string(kRuleRegistry),
                      "documented metric \"" + name +
                          "\" has no registry constant"});
    }
  }
  for (const auto& [name, line] : doc.span_names) {
    bool known = false;
    for (const RegistryEntry& e : reg.spans) {
      if (e.literal == name) known = true;
    }
    if (!known) {
      out->push_back({doc.path, line, std::string(kRuleRegistry),
                      "documented span \"" + name +
                          "\" has no registry constant"});
    }
  }
  for (const auto& [name, line] : doc.categories) {
    bool known = false;
    for (const RegistryEntry& e : reg.categories) {
      if (e.literal == name) known = true;
    }
    if (!known) {
      out->push_back({doc.path, line, std::string(kRuleRegistry),
                      "documented category \"" + name +
                          "\" has no registry constant"});
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file driver: rules, then suppression filtering.
// ---------------------------------------------------------------------------

void LintFile(SourceFile& f, const FileIndex& idx, const LintContext& ctx,
              std::vector<Finding>* findings) {
  std::vector<Finding> raw;
  SymbolInfo info;
  CollectSymbols(f, &info);
  CheckNoRawSqrt(f, &raw);
  CheckOrderedEmission(f, info, &raw);
  CheckExplicitMemoryOrder(f, info, &raw);
  CheckBannedNondeterminism(f, &raw);
  CheckNameHygiene(f, &raw);
  CheckHeaderHygiene(f, &raw);
  CheckProcessControl(f, &raw);
  CheckSerdeSymmetry(f, idx, &raw);
  CheckFrameExhaustive(f, idx, ctx, &raw);
  CheckLockAcrossBlocking(f, &raw);
  CheckNameRegistry(f, idx, ctx, &raw);

  // Apply suppressions: same line or the line above, matching rule id, with
  // a written reason.
  for (Finding& fd : raw) {
    bool suppressed = false;
    for (Suppression& s : f.suppressions) {
      if (s.rule != fd.rule) continue;
      if (fd.line < s.target_line || fd.line > s.target_end) continue;
      if (!s.has_reason) continue;
      s.used = true;
      suppressed = true;
    }
    if (!suppressed) findings->push_back(std::move(fd));
  }
  for (const Suppression& s : f.suppressions) {
    if (!s.has_reason) {
      findings->push_back(
          {f.path, s.line, std::string(kRuleNoReason),
           "allow(" + s.rule +
               ") has no '-- <reason>'; suppressions must say why"});
    } else if (!s.used) {
      findings->push_back({f.path, s.line, std::string(kRuleUnused),
                           "allow(" + s.rule +
                               ") suppresses nothing on its target line; "
                               "remove it"});
    }
  }
}

}  // namespace ddp_lint
