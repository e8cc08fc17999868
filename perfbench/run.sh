#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <extract|query|cluster> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the binary, the
# benchmark's stores and its span dumps all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
# The go command's own state (telemetry counters, its env file) lives
# under the user config directory; keep it in the checkout as well.
export XDG_CONFIG_HOME="$build/config"

go -C perfbench build -o "$build/perfbench" .
# The commit only when the checkout is itself a git work tree.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$build/perfbench" --commit "$commit" "$@"
