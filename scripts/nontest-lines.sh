#!/bin/sh
# Non-test product lines of the three crates ROADMAP tracks for size: per
# crate, every .rs file under src/ (subdirectories included) counted up to but
# not including its first `#[cfg(test)]` line (the rule CHANGES.md has applied
# since PR 12); a file that opens with `#![cfg(test)]` is all test and counts
# nothing. Comments and blank lines count: a target met by deleting reasons or
# by denser formatting is not met.
#
#   scripts/nontest-lines.sh                      # core, net, dist and their total
#   scripts/nontest-lines.sh core net dist query  # what CI prints: query rides
#                                                 # along, code moves between it and core
#   scripts/nontest-lines.sh -v dist              # per file, for the named crates
set -eu
cd "$(dirname "$0")/.."

verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
[ "$#" -gt 0 ] || set -- core net dist

total=0
for crate in "$@"; do
    sum=0
    for file in $(find "crates/$crate/src" -name '*.rs' | sort); do
        lines=$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        [ "$verbose" -eq 0 ] || printf '  %-40s %6d\n' "$file" "$lines"
        sum=$((sum + lines))
    done
    printf '%-6s %6d\n' "$crate" "$sum"
    total=$((total + sum))
done
printf '%-6s %6d\n' total "$total"
