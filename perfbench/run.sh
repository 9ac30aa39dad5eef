#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 0 --seconds 20 --trace 0
#
# Every build artifact, cache and result file stays under .bench_build/ in
# the checkout. A tree without the cocoa module beside perfbench/ fails the
# build, so the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

commit=unknown
if [ -e "$root/.git" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
