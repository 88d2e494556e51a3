#!/usr/bin/env bash
# Builds pslserver and the benchmark from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout; each run's
# record is appended to runs.jsonl there.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pslserver" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/pslserver here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# Telemetry off, as `go telemetry off` would set it: otherwise the first go
# command under a fresh config dir starts a detached telemetry process that
# outlives this script.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/bin/pslserver" ./cmd/pslserver >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" -server "$out/bin/pslserver" -records "$out/runs.jsonl" -commit "$commit" -root "$root" "$@"
