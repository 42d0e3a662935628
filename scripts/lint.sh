#!/usr/bin/env sh
# lint.sh — one-shot local lint mirroring the CI lint leg: gofmt,
# staticcheck (when installed), and rtds-lint (built fresh from this tree).
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    exit 1
fi

echo "== go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck (skipped: not installed; CI runs it)"
fi

# All six analyzers; rtds-lint takes package patterns only.
echo "== rtds-lint"
go build -o bin/rtds-lint ./cmd/rtds-lint
./bin/rtds-lint ./...

echo "lint clean"
