#!/bin/sh
# bench_paper must reproduce Figures 7-14 byte for byte. At scale 0.05
# its 11 CSVs match the checked-in digests (recorded from the
# per-figure benches it replaced); a rerun against the result store
# the first run filled serves every cell from the store and writes the
# same bytes.
#
# Usage: scripts/check_paper_csvs.sh <bench_paper> <digest file>
bench=${1:?usage: check_paper_csvs.sh <bench_paper> <digest file>}
digests=${2:?usage: check_paper_csvs.sh <bench_paper> <digest file>}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

for run in cold warm; do
    if ! "$bench" 0.05 store > "$run.out" 2> "$run.err"; then
        echo "FAIL: $run run exited nonzero"
        cat "$run.err"
        exit 1
    fi
    sha256sum --quiet -c "$digests" || { echo "FAIL: $run CSVs"; exit 1; }
done
cmp cold.out warm.out || exit 1
# The warm run's summary line: "bench_paper: N cells, N from the store".
if ! grep -Eq '^bench_paper: ([0-9]+) cells, \1 from the store$' \
        warm.err; then
    echo "FAIL: the warm rerun executed cells"
    cat warm.err
    exit 1
fi
