#!/bin/sh
# Checks a Makefile's hand-kept test lists: for every `go test ... -run
# '...'` line, each literal Test... name in the -run alternation must
# match a test that `go test -list` finds in the packages that line
# tests. A renamed or deleted test otherwise drops out of its list
# silently, and the line still passes, running less. Names are matched
# as the -run pattern matches them at the top level: a name may be a
# prefix ('TestPutChunk' covers 'TestPutChunkReplicates...'), and a
# '/subtest' suffix is ignored. Used by `make run-lists` and the CI
# verify job.
set -eu

MK="${1:-Makefile}"
LINES="$(mktemp)"
trap 'rm -f "$LINES"' EXIT
grep -E "go test .*-run '" "$MK" >"$LINES" || true

fail=0
while IFS= read -r line; do
	pattern=$(printf '%s\n' "$line" | sed -nE "s/.*-run '([^']*)'.*/\1/p")
	pkgs=$(printf '%s\n' "$line" | tr ' \t' '\n\n' | grep -E '^\./' || true)
	[ -n "$pattern" ] && [ -n "$pkgs" ] || continue
	# shellcheck disable=SC2086 # pkgs is a word list
	listed=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	for name in $(printf '%s\n' "$pattern" | tr '|' '\n'); do
		name=${name#^}
		name=${name%\$}
		name=${name%%/*}
		case $name in
		Test*) ;;
		*) continue ;;
		esac
		if ! printf '%s\n' "$listed" | grep -q "^$name"; then
			echo "run-lists: $MK runs '$name' in" $pkgs "but no test there matches it"
			fail=1
		fi
	done
done <"$LINES"
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "run-lists: every listed test exists"
