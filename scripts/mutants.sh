#!/usr/bin/env bash
# Mutation checks: does each oracle test still catch the bug it guards?
#
# Every line of scripts/mutants.tsv names a file, an exact text in it, a
# replacement, the `cargo test -q` arguments of one test, and text that
# test must print when it fails. The committed tree (`git archive HEAD`)
# is exported to a temporary directory outside the repo. There, every
# named test must first pass unmutated; then each mutant is applied alone,
# and its test must fail printing its text (a mutant that does not build
# survives). Prints each survivor and exits 1 if any survives.
#
#   scripts/mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
table="$PWD/scripts/mutants.tsv"
work=$(mktemp -d "${TMPDIR:-/tmp}/ccdem-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
git archive HEAD | tar -x -C "$work"
cd "$work"

# Replaces the one occurrence of $2 in file $1 with $3 (`\n` escapes
# expanded); fails when $2 does not occur exactly once.
mutate() {
    python3 - "$@" <<'EOF'
import sys
path, text, replacement = (a.replace("\\n", "\n") for a in sys.argv[1:4])
source = open(path).read()
if source.count(text) != 1:
    sys.exit(f"{path}: {source.count(text)} occurrences of {text!r}")
open(path, "w").write(source.replace(text, replacement))
EOF
}

mutants=$(grep -v '^#' "$table" | grep -c .)
echo "mutants: $mutants in $table"
cut -s -f4 "$table" | sort -u | while read -r test; do
    # shellcheck disable=SC2086 # the field is a list of cargo arguments
    cargo test -q $test > /dev/null 2>&1 || {
        echo "mutants: unmutated test fails: cargo test -q $test" >&2
        exit 1
    }
done

survivors=0
while IFS=$'\t' read -r file text replacement test expect; do
    case "$file" in '#'* | '') continue ;; esac
    cp "$file" "$file.orig"
    mutate "$file" "$text" "$replacement"
    # shellcheck disable=SC2086
    if cargo test -q $test > out.txt 2>&1 || ! grep -qF -- "$expect" out.txt; then
        echo "survived: $file: $text -> $replacement ($test)"
        survivors=$((survivors + 1))
    else
        echo "caught:   $file: $text"
    fi
    # A fresh mtime, so cargo rebuilds the restored file.
    mv "$file.orig" "$file"
    touch "$file"
done < "$table"

echo "mutants: $survivors of $mutants survived"
[ "$survivors" -eq 0 ]
