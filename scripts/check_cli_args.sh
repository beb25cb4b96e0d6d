#!/bin/sh
# hetsim_cli must refuse malformed arguments before doing any work:
# each case below prints "error: ..." on stderr and exits 1. Every
# case also asks for a tiny scale, so a parser that let the input
# through would run a short simulation and fail the check, not hang.
#
# Usage: scripts/check_cli_args.sh <path to hetsim_cli>
cli=${1:?usage: check_cli_args.sh <hetsim_cli>}
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0

expect_error() {
    "$cli" "$@" > /dev/null 2> "$err"
    rc=$?
    if [ $rc -ne 1 ] || ! grep -q '^error:' "$err"; then
        echo "FAIL (exit $rc): hetsim_cli $*"
        cat "$err"
        status=1
    fi
}

# A dangling final option (here a flag without its value).
expect_error run --config AdvHet --app fft --scale 0.01 --no-skip
# A non-numeric and a partly numeric value.
expect_error run --app fft --scale abc
expect_error run --app fft --scale 0.01x
expect_error run --app fft --scale 0.01 --seed 12abc
# A negative value for an unsigned option.
expect_error run --app fft --scale 0.01 --seed -1
# A non-positive scale.
expect_error run --app fft --scale 0
expect_error run --app fft --scale -0.5
# An option the command does not take.
expect_error dse --space gpu --scale 0.01 --repeat 2
# A 32-bit option above UINT32_MAX (2^32 + 1 would wrap to 1).
expect_error record --app fft --scale 0.01 --max 10 \
    --thread 4294967297 --out /dev/null
expect_error sweep --configs BaseCMOS --workloads fft --scale 0.01 \
    --jobs 4294967297
# A thread index outside the recorded thread count.
expect_error record --app fft --scale 0.01 --max 10 --threads 0 \
    --out /dev/null
expect_error record --app fft --scale 0.01 --max 10 --thread 4 \
    --threads 4 --out /dev/null

exit $status
