#!/usr/bin/env bash
# Prints what the installed `llinf` writes, stdout and stderr, with each
# exit code, for a fixed set of runs: `examples --run`, a seeded `bench`,
# `eval` and `trace` at depth 3, `weight --depths 0..3`, and under both
# systems `check --infer` and `check` with the empty environment on
# every bundled example, three streams encoded and decoded again, a decode
# that runs out of fuel (`omega_ind`, exit 2), a finite word encoded
# in the free algebra and decoded in full, cut off, under a signature
# of another shape and in the wrong mode (both exit 1), `bit_flip`
# applied to the stream 01(110) and decoded to bounds 0, 1 and 400,
# a tree whose decode reads one contents twice and then deadlocks
# (exit 1), that `bit_flip` program evaluated to depth 40 and at a
# budget whose share at depth 40 is below what its box's contents
# charged at earlier depths (exit 2), a program whose boxes repeat
# evaluated at a fuel that runs out among repeated boxes (exit 2), the
# word 0^1000 encoded as a literal nest of boxes and decoded in full, a
# program whose budget a box's share passes at depth 1 (exit 2), and
# `check` on six files that do not parse (exit 3): a bad character after
# a comment, an unclosed `(`, a missing root after a trailing `// c`,
# `flags` in a term file, a duplicate definition and a `\x` with no `.`,
# and on the lambda file of a loop through argument sides, `check` with
# its own flags and with `--flags 000` (exit 1) and both embeddings
# under the flags that accept it and under ones that do not (exit 1),
# then both embeddings of omega, and `check` under each of the eight
# flag triples on a lambda file with a loop through an abstraction body
# on the function side and one on the argument side.
# The output must be the same in any process, so two runs under
# different hash seeds must print the same bytes, and those bytes are
# pinned by their SHA-256 in ci/transcript.sha256 (a change that means
# to alter the output updates the hash):
#
#   PYTHONHASHSEED=0 ci/transcript.sh > transcript-0.txt
#   PYTHONHASHSEED=1 ci/transcript.sh > transcript-1.txt
#   cmp transcript-0.txt transcript-1.txt
#   sha256sum -c ci/transcript.sha256
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
    for system in llinf 4s; do
        run check --system $system --infer "$name.lli"
        run check --system $system "$name.lli"
    done
done
for spec in '01(10)' '1(0)' '(110)'; do
    llinf encode --mode coalgebra "$spec" > stream.lli
    run encode --mode coalgebra "$spec"
    run decode --mode coalgebra --bound 24 stream.lli
done
run decode --bound 4 omega_ind.lli
llinf encode --mode algebra 0110 > word.lli
run encode --mode algebra 0110
run decode --mode algebra --bound 8 word.lli
run decode --mode algebra --bound 2 word.lli
run decode --sig 'sig t { node/2, leaf/0 }' word.lli
run decode --mode coalgebra word.lli
{ llinf examples bit_flip; llinf encode --mode coalgebra '01(110)'; } |
    grep '^def' > flip.lli
printf 'def main = flip enc_s0 ;\nroot main ;\n' >> flip.lli
for bound in 0 1 400; do
    run decode --mode coalgebra --bound $bound flip.lli
done
cat > tree.lli <<'END'
def t = \!n. \!l. n #leaf #u ;
def leaf = \!n. \!l. l ;
def u = \!n. \!l. n #leaf #w ;
def w = \!n. \!l. n #d #d ;
def d = (\!x. x) #leaf ;
root t ;
END
run decode --sig 'sig t { node/2, leaf/0 }' --mode coalgebra --bound 3 tree.lli
run decode --sig 'sig t { node/2, leaf/0 }' --mode coalgebra tree.lli
run eval --depth 40 flip.lli
run eval --depth 40 --budget 284 flip.lli
cat > ordered.lli <<'END'
def T = c #(!((\x. x) T)) #((\x. x) T) ;
root T ;
END
run eval --depth 2 --fuel 3 ordered.lli
llinf encode --mode coalgebra "$(printf '0%.0s' $(seq 1000))" > nest.lli
run decode --mode coalgebra --bound 5000 nest.lli
cat > share.lli <<'END'
def M = x #A #B ;
def A = y #u #u #u #u #u #u #u #u ;
def B = (\!z. z) #w ;
root M ;
END
run eval --depth 3 --budget 10 share.lli
cat > bad-char.lli <<'END'
def M = x ; // a comment may hold $
def N = ) ;
root M ; $
END
printf 'def M = (x y ;\nroot M ;\n' > unclosed.lli
printf 'def M = x ;\n// c' > trailing-comment.lli
printf 'def M = x ;\nroot M ;\nflags 101 ;\n' > flags.lli
printf 'def M = x ;\ndef M = y ;\nroot M ;\n' > duplicate.lli
printf 'def M = \\x x ;\nroot M ;\n' > no-dot.lli
for name in bad-char unclosed trailing-comment flags duplicate no-dot; do
    run check "$name.lli"
done
printf 'def D = (\\x. x) (h D) ;\nroot D ;\nflags 001 ;\n' > loop.lam
run check loop.lam
run check --flags 000 loop.lam
run embed --which girard --a 1 loop.lam
run embed --which girard --a 0 loop.lam
run embed --which cbv --a 0 --b 1 loop.lam
run embed --which cbv --a 1 --b 0 loop.lam
printf 'def O = (\\x. x x) (\\x. x x) ;\nroot O ;\n' > omega.lam
for which in girard cbv; do
    run embed --which $which omega.lam
done
printf 'def T = (C d) B ;\ndef C = \\x. C ;\ndef B = \\y. B ;\nroot T ;\n' > loops.lam
for flags in 000 001 010 011 100 101 110 111; do
    run check --flags $flags loops.lam
done
