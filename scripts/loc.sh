#!/usr/bin/env bash
# Product-line count of the workspace crates: per `crates/*/src/**/*.rs`
# file and per crate, the non-blank lines that do not start with `//`
# (so doc comments do not count either), up to the file's first
# `#[cfg(test)]`. This is the measure the simplification PRs quote in
# CHANGES.md. Report only — no threshold.
#
#   scripts/loc.sh [ROOT]              # one tree (default: the current directory)
#   scripts/loc.sh OLD_ROOT NEW_ROOT   # two trees: before, after and delta per row
#
# For a before column, point OLD_ROOT at a `git archive` of the parent.
set -euo pipefail

# Prints `count<TAB>label` for each file, each crate and the workspace of
# the tree at $1.
count() {
  (
    cd "$1"
    total=0
    for crate in crates/*/; do
      sum=0
      while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit }
                 !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
                 END { print n + 0 }' "$file")
        printf '%s\t%s\n' "$n" "$file"
        sum=$((sum + n))
      done < <(find "${crate}src" -name '*.rs' | sort)
      printf '%s\t%s (crate)\n' "$sum" "${crate%/}"
      total=$((total + sum))
    done
    printf '%s\tworkspace\n' "$total"
  )
}

case $# in
  0 | 1)
    count "${1:-.}" | awk -F'\t' '{ printf "%6d  %s\n", $1, $2 }'
    ;;
  2)
    printf '%7s %7s %7s  %s\n' before after delta 'file / crate'
    # A row missing from one tree counts 0 there. The sort key keeps each
    # crate's row after its files and the workspace row last.
    awk -F'\t' '
      NR == FNR { old[$2] = $1; rows[$2] = 1; next }
                { new[$2] = $1; rows[$2] = 1 }
      END {
        for (r in rows) {
          key = r
          if (r == "workspace") key = "~"
          else if (sub(/ \(crate\)$/, "", key)) key = key "/~"
          printf "%s\t%7d %7d %+7d  %s\n", key, old[r], new[r], new[r] - old[r], r
        }
      }' <(count "$1") <(count "$2") | LC_ALL=C sort | cut -f2-
    ;;
  *)
    echo "usage: $0 [ROOT] | $0 OLD_ROOT NEW_ROOT" >&2
    exit 2
    ;;
esac
