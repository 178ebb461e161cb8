#!/bin/sh
# Non-test Go lines per package directory — the number ROADMAP tracks ("it
# should go down"): for every directory holding a *.go file that is not a
# *_test.go, the `wc -l` of those files together, then the total. Report only.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} + | sort -u); do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%7d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
