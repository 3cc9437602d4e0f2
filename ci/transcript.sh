#!/usr/bin/env bash
# Prints what the installed `llinf` writes, stdout and stderr, with each
# exit code, for a fixed set of runs: `examples --run`, a seeded `bench`,
# `eval` and `trace` at depth 3 and `weight --depths 0..3` on every
# bundled example, three streams encoded and decoded again, and a decode
# that runs out of fuel (`omega_ind`, exit 2).  The output
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
    run weight --depths 0..3 "$name.lli"
done
for spec in '01(10)' '1(0)' '(110)'; do
    llinf encode --mode coalgebra "$spec" > stream.lli
    run encode --mode coalgebra "$spec"
    run decode --mode coalgebra --bound 24 stream.lli
done
run decode --bound 4 omega_ind.lli
