#!/usr/bin/env bash
# Every -run / -bench / -fuzz pattern in the CI workflow and the Makefile
# is a list of alternatives; one that names a test outright (it starts
# with Test, Benchmark or Fuzz) and matches nothing in `go test -list`
# selects nothing, and the step that carries it passes vacuously for
# ever after a rename. This fails on such an alternative. Substring
# alternatives ('Identity', 'ErrorBound') and '^$' / NONE are left alone.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

names="$(go test -list '.*' ./... | grep -E '^(Test|Benchmark|Fuzz)')"
files=(.github/workflows/ci.yml Makefile)

status=0
while IFS= read -r pattern; do
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		[[ $alt =~ ^(Test|Benchmark|Fuzz) ]] || continue
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "check_test_names: '$alt' (in ${files[*]}) matches no test, benchmark or fuzz target" >&2
			status=1
		fi
	done
done < <(grep -ohE -- "-(run|bench|fuzz)[= ]('[^']*'|[^ '\\\\]+)" "${files[@]}" |
	sed -E "s/^-(run|bench|fuzz)[= ]//; s/^'//; s/'\$//" | sort -u)
exit $status
