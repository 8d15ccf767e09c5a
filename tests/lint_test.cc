// End-to-end tests for tools/ddp_lint against the checked-in fixture tree in
// tests/lint_fixtures/. The fixtures mirror real tree paths (src/core,
// src/common, src/mapreduce, tools/) so the path-scoped rules fire exactly
// as they do over the real tree; the tree scan itself skips anything under a
// lint_fixtures directory. Each test pins the exact diagnostic lines and the exit code, so
// a behavior change in the linter fails here before it confuses CI.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

#ifndef DDP_LINT_BIN
#error "DDP_LINT_BIN must point at the ddp_lint executable"
#endif
#ifndef DDP_LINT_FIXTURES
#error "DDP_LINT_FIXTURES must point at tests/lint_fixtures"
#endif

struct RunResult {
  int exit_code = -1;
  std::string out;  // stdout only; stderr carries the summary line
};

RunResult RunLint(const std::string& args) {
  RunResult r;
  std::string cmd = std::string(DDP_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.out.append(buf, n);
  int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string Fixture(const std::string& rel) {
  return std::string(DDP_LINT_FIXTURES) + "/" + rel;
}

TEST(LintTest, ListRulesNamesEveryRule) {
  RunResult r = RunLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"no-raw-sqrt", "ordered-emission", "explicit-memory-order",
        "banned-nondeterminism", "name-hygiene", "header-hygiene",
        "process-control", "serde-symmetry", "frame-exhaustive",
        "lock-across-blocking", "name-registry", "suppression-missing-reason",
        "unused-suppression"}) {
    EXPECT_NE(r.out.find(rule), std::string::npos) << "missing rule " << rule;
  }
}

TEST(LintTest, RawSqrtViolation) {
  std::string f = Fixture("src/core/raw_sqrt.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":3: [no-raw-sqrt] sqrt() in squared-space kernel code; keep "
                "distances in d^2 and take one sqrt at final assembly "
                "(annotate that site)\n");
}

TEST(LintTest, SuppressionWithReasonIsClean) {
  RunResult r = RunLint(Fixture("src/core/raw_sqrt_allowed.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, SuppressionWithoutReasonReportsBoth) {
  std::string f = Fixture("src/core/raw_sqrt_noreason.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":3: [suppression-missing-reason] allow(no-raw-sqrt) has no "
                "'-- <reason>'; suppressions must say why\n" +
                f +
                ":4: [no-raw-sqrt] sqrt() in squared-space kernel code; keep "
                "distances in d^2 and take one sqrt at final assembly "
                "(annotate that site)\n");
}

TEST(LintTest, UnusedSuppressionIsReported) {
  std::string f = Fixture("src/core/unused_allow.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":3: [unused-suppression] allow(no-raw-sqrt) suppresses "
                "nothing on its target line; remove it\n");
}

TEST(LintTest, OrderedEmissionFlagsHashOrderOnly) {
  std::string f = Fixture("src/mapreduce/unordered_emit.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // EmitAll (line 6) is flagged; the collect-then-sort sibling is clean.
  EXPECT_EQ(r.out,
            f +
                ":6: [ordered-emission] iteration over an unordered container "
                "in a scope that emits records, with no sort in scope; "
                "emission order must be derivable, not hash-order\n");
}

TEST(LintTest, ExplicitMemoryOrderFlagsImplicitOps) {
  std::string f = Fixture("src/common/atomic_order.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":7: [explicit-memory-order] implicit seq_cst "
                "increment/decrement of atomic 'counter'; use "
                "fetch_add/fetch_sub with an explicit std::memory_order_*\n" +
                f +
                ":9: [explicit-memory-order] atomic load() without an "
                "explicit std::memory_order_* argument (implicit seq_cst "
                "hides the intended ordering)\n");
}

TEST(LintTest, BannedNondeterminism) {
  std::string f = Fixture("src/core/nondet.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":3: [banned-nondeterminism] rand is a banned nondeterminism "
                "source: use ddp::Rng seeded from Options\n");
}

TEST(LintTest, NameHygieneFlagsBadLiteralOnly) {
  std::string f = Fixture("src/common/bad_name.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // "good_name.ok" on line 4 passes; only "Bad-Name" is flagged.
  EXPECT_EQ(r.out,
            f +
                ":3: [name-hygiene] span/metric name \"Bad-Name\" must match "
                "[a-z0-9_.]+ so exported traces and metric keys stay "
                "greppable and collator-safe\n");
}

TEST(LintTest, HeaderHygiene) {
  std::string f = Fixture("src/common/bad_header.h");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f + ":1: [header-hygiene] header is missing #pragma once\n" + f +
                ":2: [header-hygiene] using namespace in a header leaks into "
                "every includer\n");
}

TEST(LintTest, ProcessControlConfinedToMapreduce) {
  std::string f = Fixture("src/core/process_control.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // fork (line 5) and kill (line 7) are flagged; the member-call wait on
  // line 8 is not a POSIX primitive.
  EXPECT_EQ(r.out,
            f +
                ":5: [process-control] fork() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n" +
                f +
                ":7: [process-control] kill() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n");
}

TEST(LintTest, SocketPrimitivesConfinedToMapreduce) {
  std::string f = Fixture("src/core/socket_use.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // socket (line 6), listen (line 7), and connect (line 8) are flagged; the
  // member declaration `void listen(int)` (line 11) and the member call
  // server.listen (line 13) are not POSIX primitives.
  EXPECT_EQ(r.out,
            f +
                ":6: [process-control] socket() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n" +
                f +
                ":7: [process-control] listen() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n" +
                f +
                ":8: [process-control] connect() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n");
}

TEST(LintTest, ServerDirMayUseSockets) {
  // src/server/ shares the R7 exemption with src/mapreduce/: the serving
  // daemon is built on the same raw socket primitives.
  RunResult r = RunLint(Fixture("src/server/socket_server.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, OtherToolsKeepProcessControlBan) {
  // No tool is exempt, the worker binary included: ddp_worker.cc serves one
  // worker per process and spawns none.
  std::string f = Fixture("tools/other_tool.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":5: [process-control] fork() outside src/mapreduce/ or "
                "src/server/; process lifecycle belongs to the worker "
                "supervisor (use the CommChannel/WorkerSupervisor API)\n");
}

// The token-stream rewrite of the linter must not change a single byte of
// R1-R7 output: this fixture pair packs one violation per legacy rule and
// pins the full diagnostic stream captured from the pre-rewrite binary.
TEST(LintTest, LegacyRulesOutputUnchangedByRewrite) {
  std::string cc = Fixture("src/core/regress_rules.cc");
  std::string h = Fixture("src/core/regress_rules.h");
  RunResult r = RunLint(cc + " " + h);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(
      r.out,
      cc +
          ":13: [no-raw-sqrt] sqrt() in squared-space kernel code; keep "
          "distances in d^2 and take one sqrt at final assembly (annotate "
          "that site)\n" +
      cc +
          ":18: [ordered-emission] iteration over an unordered container in "
          "a scope that emits records, with no sort in scope; emission order "
          "must be derivable, not hash-order\n" +
      cc +
          ":24: [explicit-memory-order] implicit seq_cst increment/decrement "
          "of atomic 'hits'; use fetch_add/fetch_sub with an explicit "
          "std::memory_order_*\n" +
      cc +
          ":25: [explicit-memory-order] atomic load() without an explicit "
          "std::memory_order_* argument (implicit seq_cst hides the intended "
          "ordering)\n" +
      cc +
          ":29: [banned-nondeterminism] rand is a banned nondeterminism "
          "source: use ddp::Rng seeded from Options\n" +
      cc +
          ":33: [name-hygiene] span/metric name \"Bad-Name\" must match "
          "[a-z0-9_.]+ so exported traces and metric keys stay greppable and "
          "collator-safe\n" +
      cc +
          ":37: [process-control] fork() outside src/mapreduce/ or "
          "src/server/; process lifecycle belongs to the worker supervisor "
          "(use the CommChannel/WorkerSupervisor API)\n" +
      h + ":1: [header-hygiene] header is missing #pragma once\n" +
      h +
          ":3: [header-hygiene] using namespace in a header leaks into every "
          "includer\n");
}

TEST(LintTest, SerdeSymmetryFlagsSwapAndDroppedField) {
  std::string f = Fixture("src/mapreduce/serde_swap.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // TaskMsg swaps two same-kind fields (order diagnostic, names only);
  // AckMsg drops a field (kind diagnostic, full wire sequences).
  EXPECT_EQ(r.out,
            f +
                ":10: [serde-symmetry] codec for 'TaskMsg' reads fields out "
                "of order: Encode() writes [job_id, attempt, name] but "
                "Decode() reads [attempt, job_id, name]\n" +
            f +
                ":21: [serde-symmetry] codec for 'AckMsg' is asymmetric: "
                "Encode() writes [varint32(code), string(detail)] but "
                "Decode() reads [varint32(code)]\n");
}

TEST(LintTest, SerdeSymmetrySuppressedWithReasonIsClean) {
  RunResult r = RunLint(Fixture("src/mapreduce/serde_allowed.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, FrameExhaustiveFlagsMissingCasesAndBareDefault) {
  std::string f = Fixture("src/server/frame_missing.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":13: [frame-exhaustive] switch over MessageType does not "
                "handle [kResult, kShutdown]; handle every frame type or add "
                "an annotated default\n" +
            f +
                ":26: [frame-exhaustive] default on a switch over "
                "MessageType hides unhandled frame types [kTask, kResult, "
                "kShutdown]; handle them or annotate the default\n");
}

TEST(LintTest, FrameExhaustiveAnnotatedDefaultIsClean) {
  RunResult r = RunLint(Fixture("src/server/frame_default_allowed.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, LockAcrossBlockingFlagsSendAndSpillWrite) {
  std::string f = Fixture("src/mapreduce/lock_send.cc");
  RunResult r = RunLint(f);
  EXPECT_EQ(r.exit_code, 1);
  // Broadcast and Flush hold the guard across I/O; Drain unlocks first and
  // must stay clean.
  EXPECT_EQ(r.out,
            f +
                ":9: [lock-across-blocking] lock 'lock' is held across "
                "blocking Send(); move the I/O outside the critical section "
                "or annotate why holding is required\n" +
            f +
                ":14: [lock-across-blocking] lock 'lock' is held across "
                "blocking SpillFileWriter::Append(); move the I/O outside "
                "the critical section or annotate why holding is required\n");
}

TEST(LintTest, LockAcrossBlockingSuppressedWithReasonIsClean) {
  RunResult r = RunLint(Fixture("src/mapreduce/lock_send_allowed.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, NameRegistryFlagsUnregisteredNames) {
  std::string reg = Fixture("src/obs/registry_ok.h");
  std::string doc = Fixture("src/obs/observability_ok.md");
  std::string f = Fixture("src/obs/name_drift.cc");
  RunResult r = RunLint("--metric-registry " + reg + " --metric-doc " + doc +
                        " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            f +
                ":5: [name-registry] metric name \"mr.unregistered_total\" "
                "is not in the metric-name registry; register it and "
                "reference the constant\n" +
            f +
                ":6: [name-registry] 'kMetricGhostSeconds' is not defined in "
                "the metric-name registry\n" +
            f +
                ":7: [name-registry] span name \"unregistered_phase\" is not "
                "a registered span name or category; register it and "
                "reference the constant\n");
}

TEST(LintTest, NameRegistryRegisteredConstantsAreClean) {
  RunResult r = RunLint("--metric-registry " + Fixture("src/obs/registry_ok.h") +
                        " --metric-doc " +
                        Fixture("src/obs/observability_ok.md") + " " +
                        Fixture("src/obs/name_ok.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintTest, NameRegistryReportsDocDriftBothDirections) {
  std::string reg = Fixture("src/obs/registry_drift.h");
  std::string doc = Fixture("src/obs/observability_drift.md");
  RunResult r = RunLint("--metric-registry " + reg + " --metric-doc " + doc +
                        " " + Fixture("src/obs/name_ok.cc"));
  EXPECT_EQ(r.exit_code, 1);
  // Drift findings anchor in whichever side is stale: the doc's ghost
  // metric row and the registry's undocumented span constant.
  EXPECT_EQ(r.out,
            doc +
                ":14: [name-registry] documented metric \"mr.ghost_total\" "
                "has no registry constant\n" +
            reg +
                ":10: [name-registry] registry span \"orphan_phase\" is "
                "missing from the observability doc\n");
}

TEST(LintTest, JsonFormatEmitsOneObjectPerFinding) {
  std::string f = Fixture("src/core/raw_sqrt.cc");
  RunResult r = RunLint("--format=json " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out,
            "{\n  \"files\": 1,\n  \"findings\": [\n    {\"path\": \"" + f +
                "\", \"line\": 3, \"rule\": \"no-raw-sqrt\", \"message\": "
                "\"sqrt() in squared-space kernel code; keep distances in "
                "d^2 and take one sqrt at final assembly (annotate that "
                "site)\", \"suppression\": \"// ddp-lint: "
                "allow(no-raw-sqrt) -- <reason>\"}\n  ]\n}\n");
}

TEST(LintTest, JsonFormatCleanFileEmitsEmptyFindings) {
  RunResult r = RunLint("--format json " + Fixture("src/core/raw_sqrt_allowed.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "{\n  \"files\": 1,\n  \"findings\": []\n}\n");
}

TEST(LintTest, MissingFileExitsTwo) {
  RunResult r = RunLint(Fixture("src/core/does_not_exist.cc"));
  EXPECT_EQ(r.exit_code, 2);
}

TEST(LintTest, UsageErrorExitsTwo) {
  EXPECT_EQ(RunLint("--bogus-flag").exit_code, 2);
  EXPECT_EQ(RunLint("").exit_code, 2);  // no root, no files
  EXPECT_EQ(RunLint("--format xml " + Fixture("src/core/raw_sqrt.cc")).exit_code,
            2);
}

TEST(LintTest, MissingExplicitRegistryExitsTwo) {
  // --metric-registry names a file explicitly, so it failing to load is an
  // I/O error (the *default* registry path is allowed to be absent — the
  // rule just stays off).
  RunResult r = RunLint("--metric-registry " +
                        Fixture("src/obs/does_not_exist.h") + " " +
                        Fixture("src/obs/name_ok.cc"));
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
