#include "lint/index.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace ddp_lint {

// --------------------------------------------------------------------------
// Original string-scan index (moved verbatim; R2/R3 depend on its exact
// behavior).
// --------------------------------------------------------------------------

void CollectSymbols(const SourceFile& f, SymbolInfo* info) {
  const std::string& code = f.code;
  for (const char* kw : {"unordered_map", "unordered_set"}) {
    for (size_t pos : FindWord(code, kw)) {
      // Skip "#include <unordered_map>" lines.
      size_t ls = f.line_starts[LineOfOffset(f, pos) - 1];
      size_t first = SkipSpace(code, ls);
      if (first < code.size() && code[first] == '#') continue;
      // "using Alias = [std::]unordered_map<...>" registers an alias.
      std::string_view before(code.data(), pos);
      size_t tail_start = before.size() > 64 ? before.size() - 64 : 0;
      std::string tail(before.substr(tail_start));
      size_t u = tail.rfind("using ");
      if (u != std::string::npos && tail.find('=', u) != std::string::npos &&
          tail.find(';', u) == std::string::npos) {
        size_t name_at = SkipSpace(tail, u + 6);
        std::string alias = ReadIdent(tail, name_at);
        if (!alias.empty()) info->unordered_aliases.insert(alias);
        continue;
      }
      size_t i = SkipSpace(code, pos + std::strlen(kw));
      if (i >= code.size() || code[i] != '<') continue;
      i = SkipAngles(code, i);
      if (i == std::string::npos) continue;
      i = SkipSpace(code, i);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = SkipSpace(code, i + 1);
      }
      std::string name = ReadIdent(code, i);
      if (name.empty()) continue;
      size_t j = SkipSpace(code, i + name.size());
      char c = j < code.size() ? code[j] : '\0';
      if (c == '(') {
        // Could be a function returning an unordered container or a variable
        // with constructor arguments; track it as both.
        info->unordered_funcs.insert(name);
        info->unordered_vars.insert(name);
      } else if (c == ';' || c == '=' || c == '{' || c == ',' || c == ')') {
        info->unordered_vars.insert(name);
      }
    }
  }
  // Variables declared with an unordered alias, directly or as the value
  // type of another container ("std::vector<Layout> layouts").
  for (const std::string& alias : info->unordered_aliases) {
    for (size_t pos : FindWord(code, alias)) {
      size_t i = SkipSpace(code, pos + alias.size());
      if (i < code.size() && code[i] == '>') {
        // "...<Alias>" — the enclosing container holds unordered values.
        i = SkipSpace(code, i + 1);
        while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
          i = SkipSpace(code, i + 1);
        }
        std::string name = ReadIdent(code, i);
        if (!name.empty()) info->unordered_elem_vars.insert(name);
      } else {
        std::string name = ReadIdent(code, i);
        if (name.empty()) continue;
        size_t j = SkipSpace(code, i + name.size());
        char c = j < code.size() ? code[j] : '\0';
        if (c == ';' || c == '=' || c == '{' || c == '(' || c == ',') {
          info->unordered_vars.insert(name);
        }
      }
    }
  }
  // "auto v = Func(...)" where Func returns an unordered container.
  for (size_t pos : FindWord(code, "auto")) {
    size_t i = SkipSpace(code, pos + 4);
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      i = SkipSpace(code, i + 1);
    }
    std::string name = ReadIdent(code, i);
    if (name.empty()) continue;
    i = SkipSpace(code, i + name.size());
    if (i >= code.size() || code[i] != '=') continue;
    i = SkipSpace(code, i + 1);
    // Callee is the last identifier before '(' in the initializer.
    size_t call = code.find('(', i);
    size_t semi = code.find(';', i);
    if (call == std::string::npos ||
        (semi != std::string::npos && semi < call)) {
      continue;
    }
    size_t id_end = call;
    while (id_end > i && !IsIdentChar(code[id_end - 1])) --id_end;
    size_t id_start = id_end;
    while (id_start > i && IsIdentChar(code[id_start - 1])) --id_start;
    std::string callee = code.substr(id_start, id_end - id_start);
    if (info->unordered_funcs.count(callee) > 0) {
      info->unordered_vars.insert(name);
    }
  }
  // std::atomic<...> declarations (for the implicit seq_cst ++/-- check).
  for (size_t pos : FindWord(code, "atomic")) {
    size_t i = SkipSpace(code, pos + 6);
    if (i >= code.size() || code[i] != '<') continue;
    i = SkipAngles(code, i);
    if (i == std::string::npos) continue;
    i = SkipSpace(code, i);
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      i = SkipSpace(code, i + 1);
    }
    std::string name = ReadIdent(code, i);
    if (!name.empty()) {
      info->atomic_vars[name].push_back(EnclosingBlock(code, pos));
    }
  }
}

// --------------------------------------------------------------------------
// Token-stream index.
// --------------------------------------------------------------------------

namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool IsIdentTok(const Token& t) { return t.kind == Token::Kind::kIdent; }

// Enum definitions: `enum [class|struct] Name [: base] { kA [= expr], ... }`.
void CollectEnums(const std::vector<Token>& toks, std::vector<EnumDef>* out) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "enum")) continue;
    size_t j = i + 1;
    if (j < toks.size() &&
        (IsIdent(toks[j], "class") || IsIdent(toks[j], "struct"))) {
      ++j;
    }
    if (j >= toks.size() || !IsIdentTok(toks[j])) continue;
    EnumDef def;
    def.name = toks[j].text;
    def.offset = toks[i].offset;
    ++j;
    // Skip the underlying-type clause up to the body (or bail on a forward
    // declaration).
    while (j < toks.size() && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";")) {
      ++j;
    }
    if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;
    size_t body_end = MatchBraceTok(toks, j);
    size_t k = j + 1;
    while (k + 1 < body_end) {
      if (IsIdentTok(toks[k])) {
        def.enumerators.push_back(toks[k].text);
        ++k;
        // Skip an initializer expression to the enumerator separator.
        int depth = 0;
        while (k + 1 < body_end) {
          if (IsPunct(toks[k], "(") || IsPunct(toks[k], "{")) ++depth;
          if (IsPunct(toks[k], ")") || IsPunct(toks[k], "}")) --depth;
          if (depth == 0 && IsPunct(toks[k], ",")) break;
          ++k;
        }
      }
      ++k;
    }
    if (!def.enumerators.empty()) out->push_back(std::move(def));
  }
}

// Parses one switch whose keyword is at toks[i]; appends it (and any nested
// switches) to `out` and returns the token index one past the switch.
size_t ParseSwitch(const std::vector<Token>& toks, size_t i,
                   std::vector<SwitchStmt>* out) {
  size_t j = i + 1;
  if (j >= toks.size() || !IsPunct(toks[j], "(")) return i + 1;
  size_t cond_end = MatchParenTok(toks, j);
  if (cond_end >= toks.size() || !IsPunct(toks[cond_end], "{")) {
    return cond_end;
  }
  size_t body_end = MatchBraceTok(toks, cond_end);
  SwitchStmt sw;
  sw.offset = toks[i].offset;
  size_t k = cond_end + 1;
  while (k + 1 < body_end) {
    if (IsIdent(toks[k], "switch")) {
      k = ParseSwitch(toks, k, out);  // nested switch owns its own cases
      continue;
    }
    if (IsIdent(toks[k], "case")) {
      // Label tokens run to the next plain ":" ("::"" lexes as one token).
      std::string qual;
      std::string enumerator;
      ++k;
      while (k + 1 < body_end && !IsPunct(toks[k], ":")) {
        if (IsIdentTok(toks[k])) {
          if (k + 1 < body_end && IsPunct(toks[k + 1], "::")) {
            qual = toks[k].text;
          } else {
            enumerator = toks[k].text;
          }
        }
        ++k;
      }
      if (!qual.empty() && !enumerator.empty()) {
        if (sw.enum_name.empty()) sw.enum_name = qual;
        sw.cases.push_back(enumerator);
      }
      continue;
    }
    if (IsIdent(toks[k], "default") && k + 1 < body_end &&
        IsPunct(toks[k + 1], ":")) {
      sw.has_default = true;
      sw.default_offset = toks[k].offset;
    }
    ++k;
  }
  if (!sw.enum_name.empty()) out->push_back(std::move(sw));
  return body_end;
}

void CollectSwitches(const std::vector<Token>& toks,
                     std::vector<SwitchStmt>* out) {
  // Top-level walk; ParseSwitch recurses into nested bodies, and appends
  // every switch it sees, so skipping past each parsed switch here avoids
  // double-counting.
  for (size_t i = 0; i < toks.size();) {
    if (IsIdent(toks[i], "switch")) {
      i = ParseSwitch(toks, i, out);
    } else {
      ++i;
    }
  }
}

struct StructSpan {
  std::string name;
  size_t body_begin = 0;  // token index of '{'
  size_t body_end = 0;    // token index one past '}'
};

void CollectStructs(const std::vector<Token>& toks,
                    std::vector<StructSpan>* out) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "struct") && !IsIdent(toks[i], "class")) continue;
    if (i > 0 && IsIdent(toks[i - 1], "enum")) continue;
    size_t j = i + 1;
    if (j >= toks.size() || !IsIdentTok(toks[j])) continue;
    StructSpan span;
    span.name = toks[j].text;
    ++j;
    // A template specialization head (`struct Serde<std::vector<T>>`) or a
    // base-clause runs to the body; a ';' first means forward declaration.
    int angle = 0;
    while (j < toks.size()) {
      if (IsPunct(toks[j], "<")) ++angle;
      if (IsPunct(toks[j], ">")) --angle;
      if (angle == 0 && IsPunct(toks[j], ";")) break;
      if (angle == 0 && IsPunct(toks[j], "{")) {
        span.body_begin = j;
        span.body_end = MatchBraceTok(toks, j);
        out->push_back(span);
        break;
      }
      if (angle == 0 && IsPunct(toks[j], "(")) break;  // constructor, not def
      ++j;
    }
  }
}

const StructSpan* InnermostStruct(const std::vector<StructSpan>& structs,
                                  size_t tok_index) {
  const StructSpan* best = nullptr;
  for (const StructSpan& s : structs) {
    if (s.body_begin < tok_index && tok_index < s.body_end) {
      if (best == nullptr || s.body_begin > best->body_begin) best = &s;
    }
  }
  return best;
}

// Wire-primitive vocabulary: BufferWriter::Put* / BufferReader::Get* method
// names mapped to their shared wire kind.
const char* WireKind(const std::string& method, bool* is_encode) {
  struct Entry {
    const char* put;
    const char* get;
    const char* kind;
  };
  static const Entry kEntries[] = {
      {"PutByte", "GetByte", "byte"},
      {"PutRaw", "GetRaw", "raw"},
      {"PutVarint32", "GetVarint32", "varint32"},
      {"PutVarint64", "GetVarint64", "varint64"},
      {"PutSignedVarint64", "GetSignedVarint64", "svarint64"},
      {"PutDouble", "GetDouble", "double"},
      {"PutFloat", "GetFloat", "float"},
      {"PutString", "GetString", "string"},
      {"PutDoubles", "GetDoubles", "doubles"},
      {"PutVarint64", "GetCount", "varint64"},
  };
  for (const Entry& e : kEntries) {
    if (method == e.put) {
      *is_encode = true;
      return e.kind;
    }
    if (method == e.get) {
      *is_encode = false;
      return e.kind;
    }
  }
  return nullptr;
}

// Identifiers that never name a serialized field: casts, type names, the
// writer/reader locals, output-pointer prefixes, and accessor methods.
bool IsFieldNameNoise(const std::string& id) {
  static const std::set<std::string> kNoise = {
      "static_cast", "reinterpret_cast", "const_cast", "std", "string",
      "string_view", "vector", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
      "int8_t", "int16_t", "int32_t", "int64_t", "size_t", "char", "int",
      "unsigned", "signed", "long", "short", "double", "float", "bool",
      "out", "ctx", "this", "size", "data", "begin", "end", "c_str",
      "Encode", "first", "second", "value", "get", "sizeof",
  };
  return kNoise.count(id) > 0;
}

// Splits the argument list of the call whose '(' is at toks[open] into
// top-level argument token ranges.
std::vector<std::pair<size_t, size_t>> SplitArgs(
    const std::vector<Token>& toks, size_t open) {
  std::vector<std::pair<size_t, size_t>> args;
  size_t close = MatchParenTok(toks, open);
  if (close == toks.size()) return args;
  size_t start = open + 1;
  int depth = 0;
  for (size_t i = open + 1; i + 1 < close; ++i) {
    if (toks[i].kind == Token::Kind::kPunct) {
      const std::string& t = toks[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth == 0 && t == ",") {
        args.push_back({start, i});
        start = i + 1;
      }
    }
  }
  if (start < close - 1 || start == open + 1) {
    if (close - 1 > start) args.push_back({start, close - 1});
  }
  return args;
}

std::string FieldNameFromArg(const std::vector<Token>& toks,
                             std::pair<size_t, size_t> arg) {
  for (size_t i = arg.first; i < arg.second; ++i) {
    if (IsIdentTok(toks[i]) && !IsFieldNameNoise(toks[i].text)) {
      return toks[i].text;
    }
  }
  return "";
}

// Extracts the flat serde op sequence of one codec body.
std::vector<SerdeOp> ExtractOps(const std::vector<Token>& toks,
                                size_t body_begin, size_t body_end) {
  std::vector<SerdeOp> ops;
  for (size_t i = body_begin; i < body_end; ++i) {
    if (!IsIdentTok(toks[i])) continue;
    const std::string& name = toks[i].text;
    bool member = i > 0 && (IsPunct(toks[i - 1], ".") ||
                            IsPunct(toks[i - 1], "->"));
    bool qualified = i > 0 && IsPunct(toks[i - 1], "::");
    bool call = i + 1 < body_end && IsPunct(toks[i + 1], "(");

    bool is_encode = false;
    const char* kind = WireKind(name, &is_encode);
    if (kind != nullptr && member && call) {
      SerdeOp op;
      op.kind = kind;
      op.offset = toks[i].offset;
      auto args = SplitArgs(toks, i + 1);
      if (!args.empty()) op.name = FieldNameFromArg(toks, args[0]);
      ops.push_back(std::move(op));
      continue;
    }
    if (name == "Serde" && i + 1 < body_end && IsPunct(toks[i + 1], "<")) {
      size_t after = MatchAngleTok(toks, i + 1);
      if (after + 2 < body_end && IsPunct(toks[after], "::") &&
          (IsIdent(toks[after + 1], "Write") ||
           IsIdent(toks[after + 1], "Read")) &&
          IsPunct(toks[after + 2], "(")) {
        std::string type_args;
        for (size_t k = i + 1; k < after; ++k) type_args += toks[k].text;
        SerdeOp op;
        op.kind = "serde" + type_args;
        op.offset = toks[i].offset;
        auto args = SplitArgs(toks, after + 2);
        if (args.size() >= 2) op.name = FieldNameFromArg(toks, args[1]);
        ops.push_back(std::move(op));
        i = after + 2;
        continue;
      }
    }
    if (name == "SerializeTo" && member && call) {
      SerdeOp op;
      op.kind = "nested";
      op.offset = toks[i].offset;
      if (i >= 2 && IsIdentTok(toks[i - 2])) op.name = toks[i - 2].text;
      ops.push_back(std::move(op));
      continue;
    }
    if (name == "DeserializeFrom" && qualified && call) {
      SerdeOp op;
      op.kind = "nested";
      op.offset = toks[i].offset;
      auto args = SplitArgs(toks, i + 1);
      if (args.size() >= 2) op.name = FieldNameFromArg(toks, args[1]);
      ops.push_back(std::move(op));
      continue;
    }
    if ((name == "EncodeDataset" || name == "DecodeDataset") && call) {
      SerdeOp op;
      op.kind = "dataset";
      op.offset = toks[i].offset;
      if (name == "EncodeDataset") {
        auto args = SplitArgs(toks, i + 1);
        if (args.size() >= 2) op.name = FieldNameFromArg(toks, args[1]);
      }
      ops.push_back(std::move(op));
      continue;
    }
  }
  return ops;
}

bool IsEncodeName(const std::string& fn) {
  return fn == "Encode" || fn == "EncodeTo" || fn == "SerializeTo" ||
         fn == "Write";
}

bool IsDecodeName(const std::string& fn) {
  return fn == "Decode" || fn == "DecodeNew" || fn == "DeserializeFrom" ||
         fn == "Read";
}

void CollectCodecPairs(const std::vector<Token>& toks,
                       const std::vector<StructSpan>& structs,
                       std::vector<CodecPair>* out) {
  // Pairing key: the struct body for in-class definitions (each Serde
  // specialization pairs its own Write/Read), the qualifier for out-of-line
  // ones (protocol.cc's `JobSubmitMsg::Encode`).
  std::map<std::string, std::vector<CodecFn>> groups;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(toks[i])) continue;
    const std::string& fn = toks[i].text;
    if (!IsEncodeName(fn) && !IsDecodeName(fn)) continue;
    if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      continue;  // member call, not a definition
    }
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    size_t params_end = MatchParenTok(toks, i + 1);
    size_t j = params_end;
    while (j < toks.size() &&
           (IsIdent(toks[j], "const") || IsIdent(toks[j], "noexcept") ||
            IsIdent(toks[j], "override") || IsIdent(toks[j], "final"))) {
      ++j;
    }
    if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;  // declaration
    size_t body_end = MatchBraceTok(toks, j);

    CodecFn codec;
    codec.fn = fn;
    codec.is_encode = IsEncodeName(fn);
    codec.offset = toks[i].offset;
    std::string key;
    if (i >= 2 && IsPunct(toks[i - 1], "::") && IsIdentTok(toks[i - 2])) {
      codec.owner = toks[i - 2].text;
      key = "q:" + codec.owner;
    } else if (const StructSpan* s = InnermostStruct(structs, i)) {
      codec.owner = s->name;
      key = "s:" + std::to_string(s->body_begin);
    } else {
      continue;  // free function named Write/Read/... — not a codec
    }
    // Bare Write/Read only pair inside Serde specializations; anywhere else
    // those names are ordinary I/O methods.
    if ((fn == "Write" || fn == "Read") &&
        codec.owner.compare(0, 5, "Serde") != 0) {
      continue;
    }
    codec.ops = ExtractOps(toks, j + 1, body_end - 1);
    groups[key].push_back(std::move(codec));
  }
  for (auto& [key, fns] : groups) {
    const CodecFn* enc = nullptr;
    const CodecFn* dec = nullptr;
    for (const CodecFn& fn : fns) {
      if (fn.is_encode && enc == nullptr) enc = &fn;
      if (!fn.is_encode && dec == nullptr) dec = &fn;
    }
    if (enc != nullptr && dec != nullptr) out->push_back({*enc, *dec});
  }
}

void CollectNameSites(const std::vector<Token>& toks,
                      std::vector<NameSite>* out) {
  struct Api {
    const char* name;
    NameSite::Kind kind;
    int args;  // how many leading arguments carry names; -1 = all
  };
  static const Api kApis[] = {
      {"GetCounter", NameSite::Kind::kMetric, -1},
      {"GetGauge", NameSite::Kind::kMetric, -1},
      {"GetHistogram", NameSite::Kind::kMetric, -1},
      {"DDP_METRIC_COUNTER_ADD", NameSite::Kind::kMetric, 1},
      {"DDP_METRIC_HISTOGRAM_SECONDS", NameSite::Kind::kMetric, 1},
      {"DDP_METRIC_HISTOGRAM_RECORD", NameSite::Kind::kMetric, 1},
      {"DDP_METRIC_GAUGE_SET", NameSite::Kind::kMetric, 1},
      {"DDP_TRACE_SPAN", NameSite::Kind::kSpan, -1},
      {"DDP_TRACE_SCOPE", NameSite::Kind::kSpan, -1},
  };
  auto collect = [&](size_t open, NameSite::Kind kind, int arg_limit) {
    auto args = SplitArgs(toks, open);
    NameSite site;
    site.kind = kind;
    size_t n = arg_limit < 0 ? args.size()
                             : std::min(args.size(), size_t(arg_limit));
    for (size_t a = 0; a < n; ++a) {
      for (size_t i = args[a].first; i < args[a].second; ++i) {
        if (toks[i].kind == Token::Kind::kString) {
          site.literals.push_back({toks[i].value, toks[i].offset});
        } else if (IsIdentTok(toks[i]) &&
                   (toks[i].text.compare(0, 7, "kMetric") == 0 ||
                    toks[i].text.compare(0, 5, "kSpan") == 0 ||
                    toks[i].text.compare(0, 4, "kCat") == 0)) {
          site.idents.push_back({toks[i].text, toks[i].offset});
        }
      }
    }
    if (!site.literals.empty() || !site.idents.empty()) {
      out->push_back(std::move(site));
    }
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(toks[i])) continue;
    for (const Api& api : kApis) {
      if (toks[i].text == api.name && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        collect(i + 1, api.kind, api.args);
        break;
      }
    }
    // Span construction: `obs::Span sp("mr", "x")`,
    // `std::make_unique<obs::Span>("mr", "x")`, `span_.emplace("mr", name)`
    // is dynamic and skipped (no literals).
    if (toks[i].text == "Span") {
      size_t j = i + 1;
      if (j < toks.size() && IsPunct(toks[j], ">")) ++j;  // make_unique<..>
      else if (j < toks.size() && IsIdentTok(toks[j])) ++j;  // named variable
      if (j < toks.size() && IsPunct(toks[j], "(")) {
        collect(j, NameSite::Kind::kSpan, -1);
      }
    }
  }
}

}  // namespace

FileIndex BuildFileIndex(const SourceFile& f) {
  FileIndex idx;
  idx.tokens = Lex(f);
  CollectEnums(idx.tokens, &idx.enums);
  CollectSwitches(idx.tokens, &idx.switches);
  std::vector<StructSpan> structs;
  CollectStructs(idx.tokens, &structs);
  CollectCodecPairs(idx.tokens, structs, &idx.codec_pairs);
  CollectNameSites(idx.tokens, &idx.name_sites);
  return idx;
}

// --------------------------------------------------------------------------
// Registry and doc parsing.
// --------------------------------------------------------------------------

namespace {

bool AnyEntryHas(const std::vector<RegistryEntry>& entries,
                 const std::string& literal) {
  for (const RegistryEntry& e : entries) {
    if (e.literal == literal) return true;
  }
  return false;
}

bool AnyEntryConstant(const std::vector<RegistryEntry>& entries,
                      const std::string& constant) {
  for (const RegistryEntry& e : entries) {
    if (e.constant == constant) return true;
  }
  return false;
}

bool AnyNameHas(const std::vector<std::pair<std::string, size_t>>& names,
                const std::string& name) {
  for (const auto& [n, line] : names) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace

bool NameRegistry::HasMetric(const std::string& literal) const {
  return AnyEntryHas(metrics, literal);
}

bool NameRegistry::HasSpanOrCategory(const std::string& literal) const {
  return AnyEntryHas(spans, literal) || AnyEntryHas(categories, literal);
}

bool NameRegistry::HasConstant(const std::string& constant) const {
  return AnyEntryConstant(metrics, constant) ||
         AnyEntryConstant(spans, constant) ||
         AnyEntryConstant(categories, constant);
}

NameRegistry ParseRegistry(const SourceFile& f) {
  NameRegistry reg;
  reg.path = f.path;
  std::vector<Token> toks = Lex(f);
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = toks[i].text;
    bool metric = name.compare(0, 7, "kMetric") == 0;
    bool span = name.compare(0, 5, "kSpan") == 0;
    bool cat = name.compare(0, 4, "kCat") == 0;
    if (!metric && !span && !cat) continue;
    if (toks[i + 1].kind != Token::Kind::kPunct || toks[i + 1].text != "=") {
      continue;
    }
    if (toks[i + 2].kind != Token::Kind::kString) continue;
    RegistryEntry entry;
    entry.constant = name;
    entry.literal = toks[i + 2].value;
    entry.line = LineOfOffset(f, toks[i].offset);
    if (metric) reg.metrics.push_back(std::move(entry));
    if (span) reg.spans.push_back(std::move(entry));
    if (cat) reg.categories.push_back(std::move(entry));
    reg.present = true;
  }
  return reg;
}

bool DocNames::HasMetric(const std::string& name) const {
  return AnyNameHas(metrics, name);
}

bool DocNames::HasSpan(const std::string& name) const {
  return AnyNameHas(span_names, name);
}

bool DocNames::HasCategory(const std::string& name) const {
  return AnyNameHas(categories, name);
}

namespace {

// Pulls every `backticked` token out of one markdown table cell; tokens with
// characters outside [a-z0-9_.] (templates like `server.job.<id>.mr_jobs`,
// prose) are skipped.
void BacktickedNames(const std::string& cell, size_t line,
                     std::vector<std::pair<std::string, size_t>>* out) {
  size_t i = 0;
  while ((i = cell.find('`', i)) != std::string::npos) {
    size_t end = cell.find('`', i + 1);
    if (end == std::string::npos) return;
    std::string name = cell.substr(i + 1, end - i - 1);
    bool ok = !name.empty();
    for (char c : name) {
      if (!(islower(static_cast<unsigned char>(c)) ||
            isdigit(static_cast<unsigned char>(c)) || c == '_' || c == '.')) {
        ok = false;
      }
    }
    if (ok) out->push_back({std::move(name), line});
    i = end + 1;
  }
}

std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '|') {
      cells.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return cells;
}

}  // namespace

bool ParseDocNames(const std::string& fs_path, const std::string& report_path,
                   DocNames* out) {
  std::ifstream in(fs_path);
  if (!in) return false;
  out->path = report_path;
  out->present = true;
  enum class Section { kOther, kSpans, kMetrics };
  Section section = Section::kOther;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.compare(0, 3, "## ") == 0) {
      if (line == "## Span taxonomy") {
        section = Section::kSpans;
      } else if (line == "## Metric names") {
        section = Section::kMetrics;
      } else {
        section = Section::kOther;
      }
      continue;
    }
    if (section == Section::kOther) continue;
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells = SplitCells(line);
    if (cells.size() < 3) continue;
    if (cells[1].find("---") != std::string::npos) continue;  // separator row
    if (section == Section::kSpans) {
      BacktickedNames(cells[1], lineno, &out->categories);
      BacktickedNames(cells[2], lineno, &out->span_names);
    } else {
      BacktickedNames(cells[1], lineno, &out->metrics);
    }
  }
  return true;
}

}  // namespace ddp_lint
