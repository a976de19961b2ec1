#!/usr/bin/env bash
# Product-line count of the workspace crates: per `crates/*/src/**/*.rs`
# file and per crate, the non-blank lines that do not start with `//`
# (so doc comments do not count either), up to the file's first
# `#[cfg(test)]`. This is the measure the simplification PRs quote in
# CHANGES.md. Report only — no threshold. Run from the repository root,
# or pass another checkout's root to count that tree instead:
#
#   scripts/loc.sh [ROOT]
set -euo pipefail

cd "${1:-.}"
total=0
for crate in crates/*/; do
  sum=0
  while IFS= read -r file; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
             END { print n + 0 }' "$file")
    printf '%6d  %s\n' "$n" "$file"
    sum=$((sum + n))
  done < <(find "${crate}src" -name '*.rs' | sort)
  printf '%6d  %s (crate)\n' "$sum" "${crate%/}"
  total=$((total + sum))
done
printf '%6d  workspace\n' "$total"
