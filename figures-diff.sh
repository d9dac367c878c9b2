#!/bin/sh
# figures-diff: check that a change leaves every printed figure byte for
# byte as a reference revision prints it. Builds cmd/consumelocal from
# `git archive REF` and from the working tree, runs
# `all -scale 0.003 -days 14 -tsv` with each, and compares the text and
# every TSV with cmp. Prints OK, or the first file that differs and
# exits 1. Usage: ./figures-diff.sh [REF] (default HEAD), or
# `make figures-diff REF=<rev>`. Not part of ci.sh: a CI clone may lack
# the reference revision.
set -eu

ref="${1:-HEAD}"
work="$(mktemp -d)"
cleanup() { rm -rf "$work"; }
trap cleanup EXIT INT TERM

mkdir "$work/src"
git archive "$ref" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/consumelocal-ref" ./cmd/consumelocal)
go build -o "$work/consumelocal-new" ./cmd/consumelocal

for side in ref new; do
    "$work/consumelocal-$side" all -scale 0.003 -days 14 -tsv "$work/$side-tsv" > "$work/$side.txt"
done

differs() {
    echo "figures-diff: $1 differs from $ref" >&2
    exit 1
}
cmp -s "$work/ref.txt" "$work/new.txt" || differs "the text output"
(cd "$work/ref-tsv" && ls) > "$work/ref.list"
(cd "$work/new-tsv" && ls) > "$work/new.list"
cmp -s "$work/ref.list" "$work/new.list" || differs "the set of TSV files"
n=0
while read -r name; do
    cmp -s "$work/ref-tsv/$name" "$work/new-tsv/$name" || differs "$name"
    n=$((n + 1))
done < "$work/ref.list"
echo "figures-diff: OK (text and $n TSVs match $ref)"
