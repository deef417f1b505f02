#!/usr/bin/env bash
# Doc-drift gate, both ways: every flag `knor --help` advertises (all
# subcommands share one usage text) must appear in the README, and every
# row of the README's flag table must name a flag `knor --help` advertises.
#
#   scripts/check_doc_drift.sh <knor-binary> <README.md>
#
# Exits 1 listing each missing flag and each stale row. The same
# extractions run as a Rust test
# (tests/cli.rs::help_flags_are_documented_in_readme), so CI catches drift
# on every leg even without this script.
set -euo pipefail

bin=${1:?usage: check_doc_drift.sh <knor-binary> <readme>}
readme=${2:?usage: check_doc_drift.sh <knor-binary> <readme>}

help_text=$("$bin" --help)

# Tokenize on whitespace and the usage metacharacters []|, keep tokens
# that look like flags: --long-flag or a single-letter short flag.
flags=$(printf '%s\n' "$help_text" | tr '[]|' '   ' | tr -s ' ' '\n' \
  | grep -E '^(--[a-z][a-z0-9-]*|-[a-zA-Z])$' | sort -u)

if [ -z "$flags" ]; then
  echo "check_doc_drift: extracted no flags from '$bin --help' — extraction broken?" >&2
  exit 1
fi

# The flag table's rows: the first word of each backticked span in a row's
# first cell (cells split on " | "; an escaped \| has no spaces around it).
rows=$(sed -n '/^### CLI flag reference/,/^## /p' "$readme" | grep -E '^\| `-' \
  | awk -F' [|] ' '{ print $1 }' | grep -oE '`-[^` ]+' | tr -d '`' | sort -u)

if [ -z "$rows" ]; then
  echo "check_doc_drift: found no flag-table rows in $readme — extraction broken?" >&2
  exit 1
fi

missing=0
for f in $flags; do
  if ! grep -qF -- "$f" "$readme"; then
    echo "doc drift: flag '$f' from 'knor --help' is missing from $readme" >&2
    missing=1
  fi
done
for f in $rows; do
  if ! printf '%s\n' "$flags" | grep -qxF -- "$f"; then
    echo "doc drift: $readme's flag table has a row for '$f', which 'knor --help' lacks" >&2
    missing=1
  fi
done

count=$(printf '%s\n' "$flags" | wc -l)
nrows=$(printf '%s\n' "$rows" | wc -l)
if [ "$missing" -ne 0 ]; then
  echo "check_doc_drift: FAILED ($count flags, $nrows table flags checked)" >&2
  exit 1
fi
echo "check_doc_drift: OK ($count flags all documented in $readme, its $nrows table flags all in --help)"
