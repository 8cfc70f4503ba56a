#!/usr/bin/env bash
# Builds sprintbench from the sources of the checkout it sits in and runs
# it with the given arguments. Every file the Go toolchain writes (build
# cache, module cache, temporary files, telemetry) stays under
# .bench_build/ at the checkout root, and the toolchain never goes to the
# network. The build fails, and the script exits non-zero without
# printing a result, when the mdsprint sources are not present.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/cmd/sprintbench" && go build -o "$build/sprintbench" .)
cd "$root"
exec "$build/sprintbench" "$@"
