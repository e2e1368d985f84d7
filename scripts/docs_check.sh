#!/bin/sh
# docs_check.sh — golint-style doc-comment gate for the documented packages.
#
# Fails if any exported top-level declaration (func, method, type, and
# single-line const/var) in the packages below lacks a doc comment on the
# line directly above it. Grouped const/var blocks are exempt (their
# members are documented at the block or field level by convention).
#
# Also fails on any file:line pointer (name.go:123) in docs/ or README.md:
# the docs cite code by symbol name, because line numbers go stale with
# every edit. And it resolves those symbol citations: a `Type.Name` (or
# `pkg.Type.Name`) in docs/ or README.md whose Type is a Go type declared in
# this module must name a method of Type or a field (or interface method) in
# its declaration — a deleted or renamed member fails the check.
#
# Run via `make docs-check` (part of `make check`).
set -eu

cd "$(dirname "$0")/.."

FILES=$(find . internal/server internal/dfs internal/core internal/obs internal/persist internal/mapred internal/exec internal/fleet internal/expr internal/piglatin internal/logical internal/oracle -maxdepth 1 -name '*.go' ! -name '*_test.go')

stale=0
if grep -rnE '\.go:[0-9]+' docs README.md; then
	echo "docs-check: cite code by symbol name, not file:line (the pointers above go stale)" >&2
	stale=1
fi

GOFILES=$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print)
for c in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+[`(]' docs/*.md README.md | tr -d '`(' | sort -u); do
	name=${c##*.}
	rest=${c%.*}
	typ=${rest##*.}
	# Only members of types this module declares are checked.
	grep -qE "^type $typ (struct|interface|[a-z])" $GOFILES || continue
	grep -qE "^func \([A-Za-z_]+ \*?$typ\) $name\(" $GOFILES && continue
	if awk -v t="$typ" -v n="$name" '
		$0 ~ "^type " t " (struct|interface) \\{" { body = 1; next }
		body && /^}/ { body = 0 }
		body {
			for (i = 1; i <= NF; i++) {
				f = $i
				sub(/[(,].*$/, "", f)
				if (f == n) found = 1
				if ($i !~ /,$/) break
			}
		}
		END { exit !found }
	' $GOFILES; then
		continue
	fi
	echo "docs-check: \`$c\` cites no method or field $name of $typ"
	stale=1
done

status=0
for f in $FILES; do
	if ! awk '
		{ lines[NR] = $0 }
		END {
			bad = 0
			for (i = 1; i <= NR; i++) {
				line = lines[i]
				flag = 0
				if (line ~ /^func [A-Z]/ \
					|| line ~ /^type [A-Z]/ \
					|| line ~ /^const [A-Z]/ \
					|| line ~ /^var [A-Z]/) {
					flag = 1
				} else if (line ~ /^func \([^)]*\) [A-Z]/) {
					# Methods: only exported receiver types need docs
					# (unexported adapters satisfying interfaces are exempt,
					# matching golint).
					recv = line
					sub(/^func \(/, "", recv)
					sub(/\).*/, "", recv)
					n = split(recv, parts, " ")
					typ = parts[n]
					sub(/^\*/, "", typ)
					if (typ ~ /^[A-Z]/) flag = 1
				}
				if (flag) {
					prev = (i > 1) ? lines[i-1] : ""
					if (prev !~ /^\/\//) {
						printf "%s:%d: exported declaration lacks a doc comment: %s\n", FILENAME, i, line
						bad = 1
					}
				}
			}
			exit bad
		}
	' "$f"; then
		status=1
	fi
done

if [ "$status" -ne 0 ]; then
	echo "docs-check: add doc comments to the declarations above (see docs/ARCHITECTURE.md for the package contracts they should state)" >&2
fi
[ "$status" -eq 0 ] && [ "$stale" -eq 0 ]
