#!/bin/sh
# Non-test product lines of the three crates ROADMAP tracks for size: per
# crate, every .rs file under src/ (subdirectories included) counted up to but
# not including its first `#[cfg(test)]` line (the rule CHANGES.md has applied
# since PR 12); a file that opens with `#![cfg(test)]` is all test and counts
# nothing. Comments and blank lines count: a target met by deleting reasons or
# by denser formatting is not met.
#
# With --code, each count is followed by its code lines — neither blank nor a
# `//` comment — and its comment lines: the measure ROADMAP item C's size
# target is stated in. Comment lines are printed beside the code lines, not
# subtracted in silence: a deleted reason is not a saving.
#
#   scripts/nontest-lines.sh                      # core, net, dist and their total
#   scripts/nontest-lines.sh --code core net dist # lines, code lines, comment lines
#   scripts/nontest-lines.sh core net dist query  # query rides along: code moves
#                                                 # between it and core
#   scripts/nontest-lines.sh -v dist              # per file, for the named crates
set -eu
cd "$(dirname "$0")/.."

verbose=0
code=0
while [ "$#" -gt 0 ]; do
    case "$1" in
    -v) verbose=1 ;;
    --code) code=1 ;;
    *) break ;;
    esac
    shift
done
[ "$#" -gt 0 ] || set -- core net dist

# A crate that is not there is an error, named before anything is printed: a
# total that silently left it out would be a wrong figure, not a smaller one.
for crate in "$@"; do
    if [ ! -d "crates/$crate/src" ]; then
        echo "nontest-lines: no crate named '$crate' (crates/$crate/src does not exist)" >&2
        exit 1
    fi
done

for crate in "$@"; do
    find "crates/$crate/src" -name '*.rs' | sort
done | xargs awk -v verbose="$verbose" -v code="$code" '
    # One row: a label, its line count and, with --code, the other two.
    function row(format, label, of) {
        printf format " %6d", label, lines[of]
        if (code) printf "  code %6d  comments %6d", codes[of], comments[of]
        printf "\n"
    }
    function add(to, from) {
        lines[to] += lines[from]; codes[to] += codes[from]; comments[to] += comments[from]
        lines[from] = codes[from] = comments[from] = 0
    }
    function close_file() {
        if (verbose && file != "") row("  %-40s", file, "file")
        add("crate", "file")
    }
    function close_crate() {
        close_file()
        if (crate != "") row("%-6s", crate, "crate")
        add("total", "crate")
    }
    FNR == 1 {
        split(FILENAME, path, "/")
        if (path[2] != crate) { close_crate(); crate = path[2] } else close_file()
        file = FILENAME
        test = 0
    }
    /#!?\[cfg\(test\)\]/ { test = 1 }
    test { next }
    { lines["file"]++ }
    /^[[:space:]]*\/\// { comments["file"]++; next }
    /[^[:space:]]/ { codes["file"]++ }
    END { close_crate(); row("%-6s", "total", "total") }
'
