#!/bin/sh
# Runs oscillator_insitu with Libsim writing into a nested directory that
# does not exist yet. The driver must create it before the run, so the run
# exits 0 and leaves a PNG there.
#
#   check_output_dirs.sh <oscillator_insitu binary> <scratch directory>
set -eu
exe=$1
out=$2
rm -rf "$out"
"$exe" ranks=4 grid=8 steps=2 libsim.enabled=true \
  'libsim.session=[session];array=data;width=32;height=32;[plot0];type=slice;axis=2;value=4' \
  "libsim.output=$out/nested/libsim"
ls "$out"/nested/libsim/*.png
