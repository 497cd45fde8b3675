#!/bin/sh
# Reach check: every function that src/'s .cpp files define in the insitu
# namespace is linked into at least one product binary (the bench/,
# examples/ and tools/ executables), or is named in the allow-list with
# the reason it is kept. An allow-list entry that src/ no longer defines
# fails too, and so does a (b)-(d) entry that a binary now reaches, so the
# list cannot rot. An (a) entry, a helper the optimiser inlined into its
# reached callers, may be reached out of line under another compiler.
#
# usage: tools/reach_check.sh <build-dir> <allow-list>
#
# <build-dir> must be compiled with -ffunction-sections -fdata-sections
# and linked with -Wl,--gc-sections, so that a binary keeps only what it
# reaches. Allow-list lines read "<demangled symbol> # (<a-d>) <reason>";
# blank lines and lines starting with # are comments.
set -eu
export LC_ALL=C

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <allow-list>" >&2
  exit 2
fi
build=$1
allow=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The demangled insitu:: functions the given files define out of line
# (strong or local). Header-inline and template code is left out: a
# compiler emits it only where it chose not to inline it. Compiler clones
# (.isra, .constprop, .part, .cold) count as their function.
functions() {
  nm --defined-only "$@" 2>/dev/null \
    | awk '$2 ~ /^[Tt]$/ { print $3 }' \
    | grep -E '^_ZZ?N[rVKRO]*6insitu' | sed 's/\..*//' | c++filt | sort -u
}

libraries=$(find "$build/src" -name 'libinsitu_*.a' | sort)
binaries=$(find "$build/bench" "$build/examples" "$build/tools" \
  -maxdepth 1 -type f -perm -u+x | sort)
if [ -z "$libraries" ] || [ -z "$binaries" ]; then
  echo "no src/ libraries or product binaries under $build" >&2
  exit 2
fi
functions $libraries > "$tmp/defined"
functions $binaries > "$tmp/reached"
comm -23 "$tmp/defined" "$tmp/reached" > "$tmp/unreached"

status=0
malformed=$(grep -v -E '^[[:space:]]*(#|$)' "$allow" \
  | grep -v -E '^.*[^ ] +# \([a-d]\) [^ ].*$' || true)
if [ -n "$malformed" ]; then
  echo "allow-list lines without '# (a-d) reason':"
  echo "$malformed"
  status=1
fi
# The symbols of the allow-list entries in the given categories.
entries() {
  grep -v -E '^[[:space:]]*(#|$)' "$allow" \
    | sed -n "s/^\(.*[^ ]\)  *# ([$1]) .*\$/\1/p" | sort -u
}
entries a-d > "$tmp/allowed"
entries b-d > "$tmp/kept"

report() {
  if [ -s "$2" ]; then
    echo "$1:"
    cat "$2"
    status=1
  fi
}
comm -23 "$tmp/unreached" "$tmp/allowed" > "$tmp/dead"
report "defined in src/, linked into no product binary, not allow-listed" \
  "$tmp/dead"
comm -12 "$tmp/kept" "$tmp/reached" > "$tmp/now_reached"
report "allow-listed as (b)-(d) but reached by a product binary" \
  "$tmp/now_reached"
comm -23 "$tmp/allowed" "$tmp/defined" > "$tmp/gone"
report "allow-listed but no longer defined in src/" "$tmp/gone"

echo "$(wc -l < "$tmp/defined") insitu:: functions defined in src/," \
  "$(wc -l < "$tmp/unreached") unreached by the" \
  "$(echo "$binaries" | wc -l) product binaries," \
  "$(wc -l < "$tmp/allowed") allow-listed"
exit $status
