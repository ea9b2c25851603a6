#!/bin/sh
# Prints the non-test Go line count of every internal/* package (nested
# packages roll up into their top-level directory), one line each, then the
# total over the whole module — the recorded source of the ROADMAP's LOC
# trend. Counting rule: every *.go file that is neither a *_test.go nor under
# a testdata/ directory, lines as `wc -l` sees them.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l
}

for d in internal/*/; do
    printf '%6d %s\n' "$(count "$d")" "${d%/}"
done
printf '%6d %s\n' "$(count .)" "total (module, non-test)"
