#!/bin/sh
# loc.sh — print non-test and test Go line counts for the root module and
# for the separate perfbench module, so a change can report its net size.
# Lines are counted with wc -l over tracked and untracked .go files alike
# (testdata and generated fuzz corpora hold no .go files).
set -eu
cd "$(dirname "$0")/.."

# count <find args...> — total lines over the matching .go files.
count() {
    find . -name '*.go' "$@" -print0 | xargs -0 cat 2>/dev/null | wc -l | tr -d ' '
}

printf '%-12s %10s %10s\n' module non-test test
printf '%-12s %10s %10s\n' root \
    "$(count ! -path './perfbench/*' ! -name '*_test.go')" \
    "$(count ! -path './perfbench/*' -name '*_test.go')"
printf '%-12s %10s %10s\n' perfbench \
    "$(count -path './perfbench/*' ! -name '*_test.go')" \
    "$(count -path './perfbench/*' -name '*_test.go')"
