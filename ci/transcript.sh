#!/usr/bin/env bash
# Prints what the installed `llinf` writes, stdout and stderr, with each
# exit code, for a fixed set of runs: `examples --run`, a seeded `bench`,
# and `eval` and `trace` at depth 3 on every bundled example.  The output
# must be the same in any process, so two runs under different hash
# seeds must print the same bytes:
#
#   PYTHONHASHSEED=0 ci/transcript.sh > a.txt
#   PYTHONHASHSEED=1 ci/transcript.sh > b.txt
#   cmp a.txt b.txt
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
run() {
    echo "\$ llinf $*"
    llinf "$@" 2>&1
    echo "exit $?"
}
run examples --run
run bench --seed 3 --count 20
for name in $(llinf examples | cut -f1); do
    llinf examples "$name" > "$name.lli"
    run eval --depth 3 "$name.lli"
    run trace --depth 3 "$name.lli"
done
