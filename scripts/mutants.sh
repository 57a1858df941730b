#!/usr/bin/env bash
# Mutant corpus: every tests/mutants/NN-<slug>.patch seeds one small
# semantic bug, and the debug test suite must catch each of them.
#
#   scripts/mutants.sh [patch...]        (default: every corpus patch)
#
# Each patch is applied to a fresh `git archive HEAD` copy (all copies
# share one target directory, so a mutant rebuilds only the crates the
# corpus edits and what depends on them), then
#   cargo test -q --no-fail-fast -p hios-serve
#   cargo test -q --test golden_digests
#   cargo test -q --test identity_pins          (every persisted identity)
#   cargo test -q --no-fail-fast -p hios-core   (patches to hios-core: its
#     in-crate tests and the `eval_equivalence` reference differential)
#   cargo test -q --no-fail-fast -p hios-sim    (patches to hios-sim: the
#     recovery loop's tests)
#   cargo test -q --no-fail-fast -p hios-store  (patches to hios-store)
#   cargo test -q --no-fail-fast -p hios-cost   (patches to hios-cost)
#   cargo test -q --no-fail-fast -p hios-graph  (patches to hios-graph)
# run in debug, each to the end.  A failure kills the mutant, and so does
# a build failure.  Per mutant it prints the first failing test (and how
# many more failed), whether the memo table's check fired (`a memo hit
# diverged from its recomputation`) and the seconds taken.  Exits
# non-zero when a mutant survives or a patch no longer applies.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ $# -gt 0 ]; then patches=("$@"); else patches=("$root"/tests/mutants/*.patch); fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# A killed mutant's failing tests keep their temp directories; keep them
# under $tmp so that they go with it.
export TMPDIR="$tmp/tmpdir"
mkdir -p "$TMPDIR"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"
copy="$tmp/copy"
# Files any patch edits: touched in every copy, so that a file the last
# mutant changed is rebuilt from its restored text.
mapfile -t edited < <(sed -n 's|^+++ b/||p' "${patches[@]}" | sort -u)

printf '%-40s %-8s %-6s %5s  %s\n' mutant verdict check secs "killed by"
bad=0
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    log="$tmp/$name.log"
    rm -rf "$copy"
    mkdir -p "$copy"
    git -C "$root" archive HEAD | tar -x -C "$copy"
    (cd "$copy" && touch "${edited[@]}")
    if ! (cd "$copy" && git apply "$patch"); then
        printf '%-40s %-8s\n' "$name" NOAPPLY
        bad=1
        continue
    fi
    start=$SECONDS
    verdict=SURVIVED
    (cd "$copy" && cargo test -q --no-fail-fast -p hios-serve) > "$log" 2>&1 || verdict=killed
    (cd "$copy" && cargo test -q --test golden_digests) >> "$log" 2>&1 || verdict=killed
    (cd "$copy" && cargo test -q --test identity_pins) >> "$log" 2>&1 || verdict=killed
    for crate in hios-core hios-sim hios-store hios-cost hios-graph; do
        if grep -q "^+++ b/crates/$crate/" "$patch"; then
            (cd "$copy" && cargo test -q --no-fail-fast -p "$crate") >> "$log" 2>&1 || verdict=killed
        fi
    done
    [ "$verdict" = killed ] || bad=1
    check=no
    grep -q "a memo hit diverged from its recomputation" "$log" && check=yes
    failed="$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log")"
    by="$(head -n 1 <<< "$failed")"
    more=$(( $(grep -c . <<< "$failed" || true) - 1 ))
    (( more <= 0 )) || by="$by (+$more more)"
    [ -n "$by" ] || { grep -q '^error' "$log" && by="(build)"; } || true
    printf '%-40s %-8s %-6s %5d  %s\n' "$name" "$verdict" "$check" $((SECONDS - start)) "$by"
done
exit $bad
