#!/bin/sh
# The kernel variants must share no out-of-line code. generic.cpp is
# built for the baseline ISA and simd.cpp for x86-64-v3; when both
# objects define the same global or weak insitu:: symbol, the linker keeps
# one copy for both, so the scalar fallback (INSITU_KERNELS=generic, or
# simd downgraded on a CPU without AVX2) may execute AVX2 code.
#
# usage: kernel_objects_check.sh <object>...   (a ;-separated list works too)
set -eu

objects=$(printf '%s\n' "$@" | tr ';' '\n')
generic=$(printf '%s\n' "$objects" | grep '/generic\.cpp\.o$' || true)
simd=$(printf '%s\n' "$objects" | grep '/simd\.cpp\.o$' || true)
if [ -z "$generic" ] || [ -z "$simd" ]; then
  echo "generic.cpp.o or simd.cpp.o missing from: $*" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Global and weak definitions in insitu's own namespace.
definitions() {
  nm --defined-only "$1" | awk '$2 ~ /^[A-Z]$/ { print $3 }' \
    | grep -E '^_ZZ?N[rVKRO]*6insitu' | LC_ALL=C sort -u
}
definitions "$generic" > "$tmp/generic"
definitions "$simd" > "$tmp/simd"

shared=$(LC_ALL=C comm -12 "$tmp/generic" "$tmp/simd" | c++filt)
if [ -n "$shared" ]; then
  echo "defined by both kernel variants (one copy serves both ISAs):"
  echo "$shared"
  exit 1
fi
echo "kernel variants share no insitu:: definition"
