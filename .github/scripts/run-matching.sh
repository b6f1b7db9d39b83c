#!/bin/sh
# usage: run-matching.sh [-race] 'Alt1|Alt2|...' <packages...>
#
# go test -run with a guard: a -run regex that matches nothing passes
# vacuously, so a renamed or moved test silently drops out of its lane.
# Every |-alternative of the regex must match at least one test of the
# listed packages (go test -list) before the lane runs.
set -eu
race=""
if [ "$1" = "-race" ]; then
	race="-race"
	shift
fi
re=$1
shift
tests=$(go test -list "$re" "$@" | grep -E '^(Test|Fuzz|Example)' || true)
for alt in $(printf '%s' "$re" | tr '|' ' '); do
	if ! printf '%s\n' "$tests" | grep -Eq "$alt"; then
		echo "run-matching: alternative '$alt' of -run '$re' matches no test in $*" >&2
		exit 1
	fi
done
echo "run-matching: -run '$re' selects $(printf '%s\n' "$tests" | wc -l) tests"
exec go test $race -run "$re" "$@"
