#!/bin/sh
# fuzz_smoke.sh — auto-discover and smoke-run every native fuzz target.
#
# `go test -fuzz` accepts exactly one target per invocation, so a fixed
# Makefile list silently stops covering targets added later. Instead we
# ask each package which Fuzz* functions it declares
# (go test -list '^Fuzz') and run every one for $FUZZTIME. A minimum
# target count guards the discovery itself: if a refactor ever makes
# the listing come up short, the smoke fails loudly instead of
# shrinking to nothing.
set -eu

GO=${GO:-go}
FUZZTIME=${FUZZTIME:-30s}
# The tree declares this many fuzz targets; discovery reporting fewer
# means it is broken or a target was deleted. Raise it with every new
# target.
MIN_TARGETS=${MIN_TARGETS:-27}

total=0
failed=0

# -list prints matching test/fuzz function names, one per line, plus an
# "ok <pkg>" trailer; keep only Fuzz* lines.
for pkg in $($GO list ./...); do
    targets=$($GO test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
    [ -z "$targets" ] && continue
    for t in $targets; do
        total=$((total + 1))
        echo "==> $pkg $t (fuzztime $FUZZTIME)"
        if ! $GO test -run NONE -fuzz "^${t}\$" -fuzztime "$FUZZTIME" "$pkg"; then
            failed=$((failed + 1))
        fi
    done
done

if [ "$total" -lt "$MIN_TARGETS" ]; then
    echo "fuzz-smoke: discovered only $total fuzz target(s); expected at least $MIN_TARGETS — discovery is broken or targets were deleted" >&2
    exit 1
fi
if [ "$failed" -gt 0 ]; then
    echo "fuzz-smoke: $failed of $total fuzz target(s) failed" >&2
    exit 1
fi
echo "fuzz-smoke: $total fuzz target(s) passed"
