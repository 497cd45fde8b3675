#!/bin/sh
# The kernel variants must share no out-of-line code. generic.cpp is
# built for the baseline ISA and simd.cpp for x86-64-v3 (except in Debug
# builds); when both objects define the same global or weak symbol, the
# linker keeps one copy for both, so the scalar fallback
# (INSITU_KERNELS=generic, or simd downgraded on a CPU without AVX2) may
# execute AVX2 code.
#
# usage: kernel_objects_check.sh insitu|all <object>...
#   insitu  checks only symbols in insitu's own namespace;
#   all     checks every global or weak definition, std:: instantiations
#           included (what a build with simd.cpp at x86-64-v3 needs).
# A ;-separated object list works too.
set -eu

scope=${1:-}
case "$scope" in
  insitu | all) shift ;;
  *)
    echo "usage: $0 insitu|all <object>..." >&2
    exit 2
    ;;
esac

objects=$(printf '%s\n' "$@" | tr ';' '\n')
generic=$(printf '%s\n' "$objects" | grep '/generic\.cpp\.o$' || true)
simd=$(printf '%s\n' "$objects" | grep '/simd\.cpp\.o$' || true)
if [ -z "$generic" ] || [ -z "$simd" ]; then
  echo "generic.cpp.o or simd.cpp.o missing from: $*" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Global and weak definitions, in insitu's own namespace unless scope=all.
definitions() {
  nm --defined-only "$1" | awk '$2 ~ /^[A-Z]$/ { print $3 }' \
    | if [ "$scope" = all ]; then cat; else grep -E '^_ZZ?N[rVKRO]*6insitu'; fi \
    | LC_ALL=C sort -u
}
definitions "$generic" > "$tmp/generic"
definitions "$simd" > "$tmp/simd"

shared=$(LC_ALL=C comm -12 "$tmp/generic" "$tmp/simd" | c++filt)
if [ -n "$shared" ]; then
  echo "defined by both kernel variants (one copy serves both ISAs):"
  echo "$shared"
  exit 1
fi
if [ "$scope" = all ]; then
  echo "kernel variants share no global or weak definition"
else
  echo "kernel variants share no insitu:: definition"
fi
