#!/bin/sh
# Coverage gate: every internal/ package changed relative to the base
# commit must hold statement coverage at or above the floor.
#
# Usage: scripts/coverage_gate.sh [base-ref]
#   base-ref  commit to diff against; defaults to the merge base with
#             origin/main, falling back to HEAD~1.
#   FLOOR     override the percentage floor (default 70).
#
# Command packages (cmd/*) are exercised end to end by the CLI smoke
# paths, not unit tests, and are intentionally out of scope here.
set -eu

FLOOR=${FLOOR:-70}
BASE=${1:-}
if [ -z "$BASE" ]; then
	BASE=$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse HEAD~1)
fi
echo "coverage gate: diffing against $BASE (floor ${FLOOR}%)"

# The pass manager is the compile pipeline's spine, the server is the
# daemon surface clients build against, the result cache decides
# whether stale campaign figures get served as fresh; gate all three on
# every run, changed or not, so a regression in their tests never slips
# through a PR that only touches their callers.
ALWAYS="internal/pass internal/server internal/result"

pkgs=$(
	{
		git diff --name-only "$BASE" HEAD -- '*.go' | grep '^internal/' |
			xargs -rn1 dirname
		for d in $ALWAYS; do
			[ -d "$d" ] && echo "$d"
		done
	} | sort -u
)
if [ -z "$pkgs" ]; then
	echo "coverage gate: no changed internal packages"
	exit 0
fi

fail=0
for d in $pkgs; do
	[ -d "$d" ] || continue # package deleted by the change
	if ! ls "$d"/*_test.go >/dev/null 2>&1; then
		echo "FAIL  $d: changed but has no tests"
		fail=1
		continue
	fi
	profile=$(mktemp)
	if ! go test -coverprofile="$profile" "./$d" >/dev/null; then
		echo "FAIL  $d: tests failed"
		fail=1
		rm -f "$profile"
		continue
	fi
	pct=$(go tool cover -func="$profile" | awk '/^total:/ {gsub("%",""); print $NF}')
	rm -f "$profile"
	if awk -v p="$pct" -v f="$FLOOR" 'BEGIN { exit !(p < f) }'; then
		echo "FAIL  $d: ${pct}% < ${FLOOR}%"
		fail=1
	else
		echo "ok    $d: ${pct}%"
	fi
done
exit $fail
