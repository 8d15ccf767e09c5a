#!/usr/bin/env bash
# Runs the full static-analysis gate — the same commands CI's static-analysis
# job runs, so "it passed locally" and "it passed CI" mean the same thing.
#
#   1. ddp_lint over src/ tools/ tests/ bench/ ddp_bench/
#                                                  (zero unsuppressed findings)
#   2. clang-tidy over the compile database        (skipped if not installed)
#   3. clang-format --dry-run --Werror             (skipped if not installed)
#
# Usage: tools/run_lint.sh [build-dir]   (default: build)
#
# Exit code is non-zero if any available tool reports a problem. Missing
# optional tools are reported but do not fail the run, so contributors
# without LLVM installed still get the ddp_lint gate.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
FAILED=0

# --- 1. ddp_lint -----------------------------------------------------------
if [ ! -x "$BUILD_DIR/tools/ddp_lint" ]; then
  echo "run_lint: building ddp_lint..."
  cmake --build "$BUILD_DIR" --target ddp_lint -j >/dev/null || {
    echo "run_lint: FAILED to build ddp_lint (configure $BUILD_DIR first?)"
    exit 2
  }
fi
echo "run_lint: ddp_lint --root $ROOT"
"$BUILD_DIR/tools/ddp_lint" --root "$ROOT" || FAILED=1
# Machine-readable copy of the same findings for CI artifacts / tooling.
"$BUILD_DIR/tools/ddp_lint" --root "$ROOT" --format=json \
    > "$BUILD_DIR/ddp_lint.json" 2>/dev/null
echo "run_lint: wrote $BUILD_DIR/ddp_lint.json"

# --- 2. clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_lint: clang-tidy (src tools bench)"
    FILES=$(find "$ROOT/src" "$ROOT/tools" "$ROOT/bench" -name '*.cc')
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p "$BUILD_DIR" $FILES >/dev/null || FAILED=1
    else
      clang-tidy -quiet -p "$BUILD_DIR" $FILES || FAILED=1
    fi
  else
    echo "run_lint: skipping clang-tidy ($BUILD_DIR/compile_commands.json missing;" \
         "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  echo "run_lint: skipping clang-tidy (not installed)"
fi

# --- 3. clang-format -------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  echo "run_lint: clang-format --dry-run --Werror"
  find "$ROOT/src" "$ROOT/tools" "$ROOT/tests" "$ROOT/bench" \
      \( -name '*.cc' -o -name '*.h' \) -not -path '*lint_fixtures*' -print0 |
    xargs -0 clang-format --dry-run --Werror || FAILED=1
else
  echo "run_lint: skipping clang-format (not installed)"
fi

if [ "$FAILED" -ne 0 ]; then
  echo "run_lint: FAILED"
  exit 1
fi
echo "run_lint: OK"
