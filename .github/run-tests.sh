#!/usr/bin/env bash
# Usage: run-tests.sh PACKAGE PATTERN [GO-TEST-FLAGS...]
#        run-tests.sh -fuzz PACKAGE TARGET FUZZTIME
#
# Runs `go test PACKAGE -run PATTERN GO-TEST-FLAGS...` after checking that
# every |-separated alternative of PATTERN names at least one test in
# PACKAGE. `go test -run` on its own exits 0 with "no tests to run" when the
# tests a step names were renamed or deleted, so the step would pass having
# tested nothing. Only the part of an alternative before its first '/' (the
# top-level test name) is checked.
#
# With -fuzz it fuzzes the one target TARGET for FUZZTIME after checking that
# PACKAGE defines it: `go test -fuzz` on a pattern that matches no target
# prints "no fuzz tests to fuzz" and exits 0.
set -euo pipefail

if [ "$1" = -fuzz ]; then
  pkg=$2 target=$3 fuzztime=$4
  listed=$(go test -list "^$target\$" "$pkg")
  if [[ $target != Fuzz* ]] || ! grep -qxF "$target" <<< "$listed"; then
    echo "run-tests.sh: $pkg has no fuzz target $target" >&2
    exit 1
  fi
  exec go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime"
fi

pkg=$1
pattern=$2
shift 2

status=0
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
  listed=$(go test -list "${alt%%/*}" "$pkg")
  if ! grep -qE '^(Test|Example|Fuzz)' <<< "$listed"; then
    echo "run-tests.sh: -run alternative '$alt' matches no test in $pkg" >&2
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
exec go test "$pkg" -run "$pattern" "$@"
