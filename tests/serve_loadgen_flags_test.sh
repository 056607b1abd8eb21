#!/bin/sh
# serve_loadgen must reject a malformed or non-positive --rate or
# --open-seconds with its usage line and exit status 2, before it serves
# anything: an unparsed duration used to run zero requests and exit 0.
# A short run must then report its send lag as 0 <= p50 <= p99 <= max.
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

out=$("$1" --file="$2" --rate=2000 --open-seconds=0.25 --json)
status=$?
if [ "$status" != 0 ]; then
  echo "serve_loadgen short run: exit $status: $out" >&2
  exit 1
fi
lag=$(printf '%s\n' "$out" | sed -n \
  's/^ *"send_lag_ns": {"p50": \([0-9]*\), "p99": \([0-9]*\), "max": \([0-9]*\)}$/\1 \2 \3/p')
set -- $lag
if [ $# != 3 ] || [ "$1" -lt 0 ] || [ "$1" -gt "$2" ] || [ "$2" -gt "$3" ]; then
  echo "serve_loadgen short run: send_lag_ns not 0 <= p50 <= p99 <= max:" >&2
  echo "$out" >&2
  exit 1
fi
