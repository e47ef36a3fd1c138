#!/usr/bin/env bash
# Builds the coldboot benchmark from source and runs it. Run it from the
# root of a checkout; every build product, work file and trace lands under
# .bench_build/ there:
#
#   bash perfbench/run.sh --workload reboot_stream --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steadiness 10 --seconds 20
#
# The build fails (and the script exits non-zero without printing a
# result) when the coldboot module is not one directory above this one.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Keep the Go build cache, module cache and tool config inside the
# checkout; the module has no external dependencies, so nothing is fetched.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C "$here" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
