#!/bin/sh
# The benches that take a scale must refuse a malformed one before
# running any cell: each case prints one "error: ..." line on stderr,
# nothing on stdout, writes no CSV, and exits 1.
#
# Usage: scripts/check_bench_args.sh <bench binary>...
[ $# -gt 0 ] || { echo "usage: check_bench_args.sh <bench>..."; exit 2; }
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

for bench in "$@"; do
    for scale in abc 1abc 0 -1 nan inf 1e999; do
        (cd "$dir" && "$bench" "$scale" > out.txt 2> err.txt)
        rc=$?
        if [ $rc -ne 1 ] || [ -s "$dir/out.txt" ] ||
           [ "$(wc -l < "$dir/err.txt")" -ne 1 ] ||
           ! grep -q '^error:' "$dir/err.txt" ||
           ls "$dir"/*.csv > /dev/null 2>&1; then
            echo "FAIL (exit $rc): $(basename "$bench") $scale"
            cat "$dir/err.txt"
            status=1
        fi
        rm -f "$dir"/*
    done
done

exit $status
