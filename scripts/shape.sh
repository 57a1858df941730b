#!/usr/bin/env bash
# The shape of the code, committed: writes SHAPE.json at the repo root.
#
#   scripts/shape.sh
#
# For every crates/*/src/**/*.rs, sorted by path:
#   non_test_lines  the lines before the first line that matches
#                   `^#\[cfg\(test\)\]` (column 0: the test module), or
#                   the whole file when there is none;
#   cfg_test_items  the `#[cfg(test)]` attributes inside those lines
#                   (test-only fields, methods and imports in non-test
#                   code);
# then the same two counts per crate and for the workspace.  A file that
# its parent declares as `#[cfg(test)]` on the line above `mod name;` is
# test code as a whole, and so is every file below it: both counts are 0.
#
# The knobs, per crate and for the workspace:
#   config_fields   the `pub` fields of the `pub struct`s named `*Config`,
#                   `*Options`, `*Params` or `*Mix` in those non-test
#                   lines (a field-less `{}` marker counts 0);
#   features        the entries under `[features]` in the crate's
#                   Cargo.toml;
# and for the workspace only:
#   env_vars        the `env::var` / `env::var_os` reads in crates/ and
#                   shims/ (all Rust files, tests included);
#   cli_flags       the distinct `"--flag"` literals the `hios-bench`
#                   binary matches its arguments against.
# The output depends on the sources only, so CI regenerates it and fails
# on a diff.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The test-only module files, each as `<path>.rs` and as `<path>/` (the
# directory of its own submodules).
test_only="$(find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    case "$file" in
        */lib.rs | */main.rs | */mod.rs) dir="${file%/*}" ;;
        *) dir="${file%.rs}" ;;
    esac
    awk -v dir="$dir" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ &&
            /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z0-9_]+;/ {
            sub(/;.*/, "")
            printf "%s/%s.rs\n%s/%s/\n", dir, $NF, dir, $NF
        }
        { prev = $0 }
    ' "$file"
done)"

find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    whole=0
    while read -r t; do
        if [ -n "$t" ] && [[ "$file" == "$t"* ]]; then whole=1; fi
    done <<< "$test_only"
    awk -v file="$file" -v whole="$whole" '
        whole { exit }
        /^#\[cfg\(test\)\]/ { exit }
        { lines++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { items++ }
        knob && /^[[:space:]]*\}/ { knob = 0 }
        knob && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { fields++ }
        /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Options|Params|Mix) *\{ *$/ { knob = 1 }
        END { printf "%s %d %d %d\n", file, lines, items, fields }
    ' "$file"
done | awk \
    -v features="$(for toml in crates/*/Cargo.toml; do
        crate="${toml#crates/}"
        awk -v crate="${crate%/Cargo.toml}" '
            /^\[/ { in_features = ($0 == "[features]") ; next }
            in_features && /^[A-Za-z0-9_-]+[[:space:]]*=/ { n++ }
            END { printf "%s %d\n", crate, n }
        ' "$toml"
    done)" \
    -v env_vars="$(find crates shims -name '*.rs' -not -path '*/target/*' -print0 |
        xargs -0 cat | grep -oE 'env::var(_os)?\(' | wc -l)" \
    -v cli_flags="$(grep -oE '"--[a-z][a-z-]*"' crates/hios-bench/src/bin/hios-bench.rs |
        sort -u | wc -l)" '
    function entry(name, lines, items, last) {
        printf "    \"%s\": { \"non_test_lines\": %d, \"cfg_test_items\": %d }%s\n",
            name, lines, items, last ? "" : ","
    }
    BEGIN {
        n = split(features, line, "\n")
        for (i = 1; i <= n; i++) { split(line[i], kv, " "); crate_features[kv[1]] = kv[2] }
    }
    {
        file[NR] = $1; lines[NR] = $2; items[NR] = $3
        split($1, part, "/"); crate[NR] = part[2]
        if (!(part[2] in crate_lines)) order[++crates] = part[2]
        crate_lines[part[2]] += $2; crate_items[part[2]] += $3
        crate_fields[part[2]] += $4
        total_lines += $2; total_items += $3; total_fields += $4
    }
    END {
        print "{"
        print "  \"files\": {"
        for (i = 1; i <= NR; i++) entry(file[i], lines[i], items[i], i == NR)
        print "  },"
        print "  \"crates\": {"
        for (i = 1; i <= crates; i++) {
            c = order[i]
            total_features += crate_features[c]
            printf "    \"%s\": { \"non_test_lines\": %d, \"cfg_test_items\": %d, \"config_fields\": %d, \"features\": %d }%s\n",
                c, crate_lines[c], crate_items[c], crate_fields[c], crate_features[c],
                i == crates ? "" : ","
        }
        print "  },"
        printf "  \"workspace\": { \"non_test_lines\": %d, \"cfg_test_items\": %d, \"config_fields\": %d, \"features\": %d, \"env_vars\": %d, \"cli_flags\": %d }\n",
            total_lines, total_items, total_fields, total_features, env_vars, cli_flags
        print "}"
    }
' > SHAPE.json
