#!/usr/bin/env bash
# Product-line count of the workspace crates: per `crates/*/src/**/*.rs`
# file and per crate, the non-blank lines that do not start with `//`
# (so doc comments do not count either), up to the file's first
# `#[cfg(test)]`. This is the measure the simplification PRs quote in
# CHANGES.md. Beside it, the public surface: the lines among those that
# start with `pub ` (not `pub(`), so each `pub` item, field and `pub use`
# counts once. Report only — no threshold.
#
#   scripts/loc.sh [ROOT]              # one tree (default: the current directory)
#   scripts/loc.sh OLD_ROOT NEW_ROOT   # two trees: before, after and delta per row
#
# For a before column, point OLD_ROOT at a `git archive` of the parent.
set -euo pipefail

# Prints `lines<TAB>pub<TAB>label` for each file, each crate and the
# workspace of the tree at $1.
count() {
  (
    cd "$1"
    total=0
    total_pub=0
    for crate in crates/*/; do
      sum=0
      sum_pub=0
      while IFS= read -r file; do
        read -r n p < <(awk '/#\[cfg\(test\)\]/ { exit }
                 !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
                 /^[[:space:]]*pub / { p++ }
                 END { print n + 0, p + 0 }' "$file")
        printf '%s\t%s\t%s\n' "$n" "$p" "$file"
        sum=$((sum + n))
        sum_pub=$((sum_pub + p))
      done < <(find "${crate}src" -name '*.rs' | sort)
      printf '%s\t%s\t%s (crate)\n' "$sum" "$sum_pub" "${crate%/}"
      total=$((total + sum))
      total_pub=$((total_pub + sum_pub))
    done
    printf '%s\t%s\tworkspace\n' "$total" "$total_pub"
  )
}

case $# in
  0 | 1)
    printf '%6s %5s  %s\n' lines pub 'file / crate'
    count "${1:-.}" | awk -F'\t' '{ printf "%6d %5d  %s\n", $1, $2, $3 }'
    ;;
  2)
    printf '%7s %7s %7s %6s %6s %6s  %s\n' before after delta \
      'pub' 'pub' 'pub' 'file / crate'
    printf '%7s %7s %7s %6s %6s %6s\n' '' '' '' before after delta
    # A row missing from one tree counts 0 there. The sort key keeps each
    # crate's row after its files and the workspace row last.
    awk -F'\t' '
      NR == FNR { old[$3] = $1; oldp[$3] = $2; rows[$3] = 1; next }
                { new[$3] = $1; newp[$3] = $2; rows[$3] = 1 }
      END {
        for (r in rows) {
          key = r
          if (r == "workspace") key = "~"
          else if (sub(/ \(crate\)$/, "", key)) key = key "/~"
          printf "%s\t%7d %7d %+7d %6d %6d %+6d  %s\n", key, old[r], new[r],
            new[r] - old[r], oldp[r], newp[r], newp[r] - oldp[r], r
        }
      }' <(count "$1") <(count "$2") | LC_ALL=C sort | cut -f2-
    ;;
  *)
    echo "usage: $0 [ROOT] | $0 OLD_ROOT NEW_ROOT" >&2
    exit 2
    ;;
esac
