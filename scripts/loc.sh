#!/usr/bin/env bash
# Code lines per crate: tracked `src/**/*.rs` files, not counting blank
# lines, comment-only lines, or `#[cfg(test)] mod … { … }` blocks. The
# number a simplification is held to (ROADMAP item 4: "a per-crate LoC
# column that goes down").
#
# Usage: scripts/loc.sh [checkout]   (default: this repository)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
    # shellcheck disable=SC2046  # file names here have no spaces
    awk '
        FNR == 1 { pending = 0; depth = 0; skipping = 0 }
        skipping {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0) skipping = 0
            next
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; held = 1; next }
        pending && /^[[:space:]]*#\[/ { held++; next }
        pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_]+ *\{/ {
            pending = 0
            depth = gsub(/\{/, "{") - gsub(/\}/, "}")
            skipping = depth > 0
            next
        }
        pending { pending = 0; n += held }
        { n++ }
        END { print n + 0 }
    ' $(git ls-files "$1/src" | grep '\.rs$')
}

total=0
printf '%-14s %s\n' crate code_lines
for dir in crates/* xtask .; do
    [ -d "$dir/src" ] || continue
    n="$(count "$dir")"
    total=$((total + n))
    name="$(basename "$dir")"
    [ "$dir" = . ] && name=ray-repro
    printf '%-14s %s\n' "$name" "$n"
done
printf '%-14s %s\n' total "$total"
