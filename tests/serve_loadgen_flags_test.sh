#!/bin/sh
# serve_loadgen must reject a malformed or non-positive --rate or
# --open-seconds with its usage line and exit status 2, before it serves
# anything: an unparsed duration used to run zero requests and exit 0.
#
# Usage: serve_loadgen_flags_test.sh SERVE_LOADGEN KB_FILE
for flag in --rate=abc --rate=0 --rate=-5 --open-seconds=abc \
    --open-seconds=0 --open-seconds=2s; do
  out=$("$1" --file="$2" "$flag" 2>&1)
  status=$?
  case "$out" in
    "usage: serve_loadgen"*) ;;
    *) status="$status, no usage line" ;;
  esac
  if [ "$status" != 2 ]; then
    echo "serve_loadgen $flag: exit $status: $out" >&2
    exit 1
  fi
done
