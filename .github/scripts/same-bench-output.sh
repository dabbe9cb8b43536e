#!/usr/bin/env bash
# Byte-identity check for two bench/main.exe runs of the same experiments.
#
#   same-bench-output.sh OUT_A OUT_B [JSON_A JSON_B [TRACE_A TRACE_B]]
#
# Compares stdout without the lines that may legitimately differ (the
# wall-clock and -j banners, the trajectory path, the trace-written
# note), then, when given, the suite JSON without its wall_ns and jobs
# lines and the two Chrome traces byte for byte.  Exits non-zero on the
# first difference.
set -euo pipefail

stdout_filter="wall-clock\|domain(s)\|trajectory\|trace written"
json_filter="wall_ns\|jobs"

diff <(grep -v "$stdout_filter" "$1") <(grep -v "$stdout_filter" "$2")
if [ $# -ge 4 ]; then diff <(grep -v "$json_filter" "$3") <(grep -v "$json_filter" "$4"); fi
if [ $# -ge 6 ]; then cmp "$5" "$6"; fi
