#!/bin/sh
# loc.sh — count Go source lines that are neither blank nor comment,
# split the way ROADMAP item 2 judges a PR: production code, its tests,
# and the reed-vet analyzers (which are code we maintain to police the
# production code). testdata/ fixtures and bench/ (the benchmark's own
# module) are not counted. Run it on the parent commit and on the change
# and diff the two tables; a trailing comment on a code line still
# counts the line as code.
set -eu

cd "$(dirname "$0")/.."

# count FILES... on stdin, one path per line.
count() {
    xargs cat | awk '
        {
            line = $0
            if (inblock) {
                if (index(line, "*/") == 0) next
                sub(/^.*\*\//, "", line)
                inblock = 0
            }
            sub(/^[ \t]+/, "", line)
            if (line ~ /^\/\*/) {
                if (index(line, "*/") == 0) { inblock = 1; next }
                sub(/^\/\*.*\*\//, "", line)
                sub(/^[ \t]+/, "", line)
            }
            if (line == "" || line ~ /^\/\//) next
            n++
        }
        END { print n + 0 }
    '
}

gofiles() {
    find "$1" -name '*.go' -not -path '*/testdata/*' \
        -not -path './tools/*' -not -path './bench/*' -not -path './.git/*'
}

vetfiles() {
    find tools/reed-vet -name '*.go' -not -path '*/testdata/*'
}

prod=$(gofiles . | grep -v '_test\.go$' | count)
tests=$(gofiles . | grep '_test\.go$' | count)
vet=$(vetfiles | grep -v '_test\.go$' | count)
vettests=$(vetfiles | grep '_test\.go$' | count)

printf '%-28s %7s\n' 'Go lines (no blank/comment)' 'lines'
printf '%-28s %7d\n' 'production (root module)' "$prod"
printf '%-28s %7d\n' 'tests (root module)' "$tests"
printf '%-28s %7d\n' 'tools/reed-vet' "$vet"
printf '%-28s %7d\n' 'tools/reed-vet tests' "$vettests"
printf '%-28s %7d\n' 'production + reed-vet' "$((prod + vet))"
