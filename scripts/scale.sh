#!/usr/bin/env bash
# Scale smoke: proves the internet-scale address layer end to end
# (DESIGN.md §14).
#
#  1. `ctest -L scale` — the test_scale suite: ScaleUniverse profile and
#     reply semantics, lazy materialization, and a full million-address
#     campaign with an in-process peak-RSS ceiling (getrusage).
#  2. A CLI campaign over the scale1m scenario whose peak RSS must stay
#     under 280 MB (the presized pending index holds one scan at
#     ~216 MB; the old pending map took ~330).
#  3. A `run --streaming` pass over scale1m (DESIGN.md §15): the
#     streaming artifact must detect at least one scan burst (tiny's
#     external scanner fleet), and the sketch layer must stay
#     O(services) next to the RSS ceiling the suite already asserts.
#  4. The adaptive prober against the fixed sweep on one scale1m scan
#     (DESIGN.md §16): three interleaved fixed/adaptive pairs, every
#     pair's wall-time ratio printed, and the median ratio must stay
#     within 2x (one pair alone read 1.70-1.99x on a shared 4-core VM).
#     Each adaptive run's peak RSS stays under a 320 MB ceiling (~228 MB
#     measured).
#  5. Campaign memory bounded by services, not by scan count (DESIGN.md
#     §16, "Scan-record lifecycle"): `run --scenario dtcp1_90d` at 180
#     and 360 days (360 and 720 scans). The 360-day peak RSS must stay
#     under 128 MB and exceed the 180-day one by less than 24 MB.
#
# Usage: scripts/scale.sh
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target test_scale svcdisc_cli

echo "== scale: ctest -L scale =="
(cd build && ctest --output-on-failure -L scale)

# Runs a command with stdout discarded and prints its peak RSS in KiB,
# via getrusage(RUSAGE_CHILDREN) in a small python3 wrapper (ru_maxrss is
# in KiB on Linux).
peak_rss_kb() {
  python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' "$@"
}

# Fails unless peak RSS $2 (KiB) of run "$1" is under $3 MB.
check_rss() {
  echo "scale: $1 peak RSS $(( $2 / 1024 )) MB (ceiling $3 MB)"
  if [ "$2" -ge $(( $3 * 1024 )) ]; then
    echo "scale: FAIL ($1 peak RSS reached $3 MB)" >&2
    exit 1
  fi
}

echo "== scale: scale1m CLI campaign, RSS bound =="
rss1="$(peak_rss_kb ./build/tools/svcdisc_cli campaign --scenario scale1m \
  --seeds 1 --scans 1)"
check_rss "fixed sweep" "$rss1" 280

echo "== scale: scale1m --streaming =="
s1="$(mktemp)" summary="$(mktemp)"
trap 'rm -f "$s1" "$summary"' EXIT
./build/tools/svcdisc_cli run --scenario scale1m --seed 1 --scans 1 \
  --streaming-out "$s1" | tee "$summary"
if ! grep -q '"kind":"scan_burst"' "$s1"; then
  echo "scale: FAIL (no scan burst detected over the scanner fleet)" >&2
  exit 1
fi

# Sketch memory must scale with services, not with the million-address
# universe: parse "sketches N bytes" from the run summary and hold it to
# a fixed budget (global sketches + a few KB per discovered service).
sketch_bytes="$(sed -n 's/.*sketches \([0-9]*\) bytes.*/\1/p' "$summary")"
services="$(sed -n 's/^streaming: [0-9]* windows, \([0-9]*\) services.*/\1/p' \
  "$summary")"
budget=$(( 1024 * 1024 + services * 4096 ))
if [ -z "$sketch_bytes" ] || [ "$sketch_bytes" -gt "$budget" ]; then
  echo "scale: FAIL (sketch memory ${sketch_bytes:-?} bytes exceeds" \
    "O(services) budget $budget for $services services)" >&2
  exit 1
fi
echo "scale: streaming sketches $sketch_bytes bytes for $services services" \
  "(budget $budget)"

echo "== scale: scale1m --prober=adaptive vs fixed, 3 interleaved pairs =="
pairs="$(mktemp -d)"
trap 'rm -f "$s1" "$summary"; rm -rf "$pairs"' EXIT
for pair in 1 2 3; do
  # Alternate which side runs first, so drift on a shared host does not
  # always favour the same side.
  order="fixed adaptive"
  if [ "$pair" -eq 2 ]; then order="adaptive fixed"; fi
  for side in $order; do
    json="$pairs/$side.$pair.json"
    if [ "$side" = fixed ]; then
      ./build/tools/svcdisc_cli campaign --scenario scale1m --seeds 1 \
        --scans 1 --json "$json" >/dev/null
    else
      rss_a="$(peak_rss_kb ./build/tools/svcdisc_cli campaign \
        --scenario scale1m --seeds 1 --scans 1 \
        --prober=adaptive --json "$json")"
      check_rss "adaptive prober, pair $pair" "$rss_a" 320
    fi
  done
done
python3 - "$pairs" <<'PY'
import json, os, statistics, sys
def wall(path):
    with open(path) as f:
        return float(json.load(f)["campaigns"][0]["wall_sec"])
ratios = []
for pair in (1, 2, 3):
    fixed = wall(os.path.join(sys.argv[1], "fixed.%d.json" % pair))
    adaptive = wall(os.path.join(sys.argv[1], "adaptive.%d.json" % pair))
    ratios.append(adaptive / fixed)
    print(f"scale: pair {pair}: adaptive {adaptive:.2f} s vs fixed "
          f"{fixed:.2f} s ({ratios[-1]:.2f}x)")
median = statistics.median(ratios)
print(f"scale: median adaptive/fixed ratio {median:.2f}x (bound 2x)")
if median > 2:
    sys.exit("scale: FAIL (adaptive prober slower than 2x the fixed sweep)")
PY

echo "== scale: dtcp1_90d at 180 and 360 days, campaign memory bound =="
rss180="$(peak_rss_kb ./build/tools/svcdisc_cli run --scenario dtcp1_90d \
  --days 180)"
echo "scale: dtcp1_90d, 180 days peak RSS $(( rss180 / 1024 )) MB"
rss360="$(peak_rss_kb ./build/tools/svcdisc_cli run --scenario dtcp1_90d \
  --days 360)"
check_rss "dtcp1_90d, 360 days" "$rss360" 128
growth_kb=$(( rss360 - rss180 ))
echo "scale: 180 -> 360 days grew $(( growth_kb / 1024 )) MB (bound 24 MB)"
if [ "$growth_kb" -ge $(( 24 * 1024 )) ]; then
  echo "scale: FAIL (campaign memory grows with scan count)" >&2
  exit 1
fi

echo "scale: OK"
