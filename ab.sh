#!/usr/bin/env bash
# A/B of two perfbench binaries on one workload.
#
# usage: ./ab.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED SECONDS PAIRS
#
# Runs PAIRS pairs of untraced SECONDS-second perfbench runs, alternating
# which side runs first. Both sides run from the repository root with one
# CARGO_TARGET_DIR (the caller's, else perfbench's default), so the
# synthetic workspace each writes sits in the same directory tree: the
# set-up time and the verdicts depend on where it is written.
#
# Per side it prints one summary line: the median and quartiles of the
# scaled `latency_ms`, the medians of the raw `wall ms p50` and the
# `reference` time (both read from perfbench's stderr), and the pairs that
# side won on the scaled and on the raw number (ties count for neither).
# Fails unless every run reports `"correct": true` and `"failed": 0`.
set -euo pipefail

if [ "$#" -ne 6 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED SECONDS PAIRS" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3 seed=$4 seconds=$5 pairs=$6
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"

# run BIN: one perfbench run; prints "SCALED RAW REFERENCE".
run() {
    local out err
    err=$(mktemp)
    out=$("$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>"$err" |
        tail -n 1)
    case "$out" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "ab: $1 did not report a correct run: $out" >&2
            cat "$err" >&2
            rm -f "$err"
            exit 1
            ;;
    esac
    local scaled raw ref
    scaled=$(sed -n 's/.*"latency_ms": {"value": \([0-9.e+-]*\).*/\1/p' <<<"$out")
    raw=$(sed -n 's#.*wall ms p10/p50/p90 [0-9.]*/\([0-9.]*\)/.*#\1#p' "$err")
    ref=$(sed -n 's/.*reference \([0-9.]*\) ms.*/\1/p' "$err")
    rm -f "$err"
    echo "$scaled $raw $ref"
}

# One line per pair: "P_SCALED P_RAW P_REF C_SCALED C_RAW C_REF".
rows=()
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        p=$(run "$parent")
        c=$(run "$change")
    else
        c=$(run "$change")
        p=$(run "$parent")
    fi
    echo "ab: pair $((i + 1))/$pairs: parent $p, change $c" >&2
    rows+=("$p $c")
done

printf '%s\n' "${rows[@]}" | awk -v w="$workload" -v s="$seed" '
    # q(a, n, f): the f-quantile of the n sorted values a[1..n], linearly
    # interpolated.
    function q(a, n, f,    x, lo) {
        x = 1 + f * (n - 1)
        lo = int(x)
        return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(col, out,    i, j, t) {
        for (i = 1; i <= NR; i++) out[i] = v[i, col]
        for (i = 2; i <= NR; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) {
                t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
            }
    }
    function line(name, off, other,    sc, rw, rf, i, ws, wr) {
        sorted(off + 1, sc); sorted(off + 2, rw); sorted(off + 3, rf)
        for (i = 1; i <= NR; i++) {
            ws += v[i, off + 1] < v[i, other + 1]
            wr += v[i, off + 2] < v[i, other + 2]
        }
        printf "ab: %s %s seed %s: latency_ms median %.3f (q1 %.3f, q3 %.3f, IQR %.3f); " \
            "raw wall p50 median %.3f ms; reference median %.3f ms; won %d/%d scaled, %d/%d raw\n",
            name, w, s, q(sc, NR, 0.5), q(sc, NR, 0.25), q(sc, NR, 0.75),
            q(sc, NR, 0.75) - q(sc, NR, 0.25), q(rw, NR, 0.5), q(rf, NR, 0.5),
            ws, NR, wr, NR
    }
    { for (i = 1; i <= 6; i++) v[NR, i] = $i }
    END { line("parent", 0, 3); line("change", 3, 0) }
'
