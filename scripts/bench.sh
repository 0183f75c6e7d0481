#!/bin/sh
# Measures the gated scheduling-path benchmarks and records them in
# BENCH_5.json. The "before" numbers are frozen from BENCH_2.json's "after"
# column (the next-event clock engine, measured on the same machine class);
# BENCH_1.json and BENCH_2.json are frozen artifacts and are no longer
# rewritten. The ticked variant is recorded alongside to separate the
# next-event clock's contribution from controller-level optimizations, and
# -benchmem pins the steady-state allocation rate of the decision path.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"

out="$(go test -run '^$' -bench 'SimulatedCyclesPerSecond|PolicyDecision|IndependentChannels|IdleSingleCore' \
	-benchtime "$benchtime" -benchmem .)"
printf '%s\n' "$out"

# Benchmark names carry a -GOMAXPROCS suffix when it is above 1, so match
# the name field exactly, suffix optional.
cycles="$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkSimulatedCyclesPerSecond(-[0-9]+)?$/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
ticked="$(printf '%s\n' "$out" | awk '/BenchmarkSimulatedCyclesPerSecondTicked/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
dec128="$(printf '%s\n' "$out" | awk '/BenchmarkPolicyDecision\/occupancy-128/ {for (i=1;i<NF;i++) if ($(i+1)=="ns/op") print $i}')"
decallocs="$(printf '%s\n' "$out" | awk '/BenchmarkPolicyDecision\/occupancy-128/ {for (i=1;i<NF;i++) if ($(i+1)=="allocs/op") print $i}')"
indch="$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkIndependentChannels(-[0-9]+)?$/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
[ -n "$cycles" ] && [ -n "$ticked" ] && [ -n "$dec128" ] && [ -n "$decallocs" ] && [ -n "$indch" ] || {
	echo "bench.sh: could not parse benchmark output" >&2
	exit 1
}

cat > BENCH_5.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkSimulatedCyclesPerSecond",
      "workload": "4-core Case Study I mix under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": 2434033,
      "after": $cycles,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkSimulatedCyclesPerSecondTicked",
      "workload": "same run with Config.ForceTicked (event clock off)",
      "unit": "DRAMcycles/s",
      "before": 2293963,
      "after": $ticked,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkPolicyDecision/occupancy-128",
      "workload": "one scheduling decision, 128-entry read buffer + 16 writes",
      "unit": "ns/op",
      "before": 349.4,
      "after": $dec128,
      "allocs_per_op": $decallocs,
      "higher_is_better": false
    }
  ],
  "baseline": "next-event clock engine (BENCH_2.json after column)",
  "note": "Gains over the BENCH_2 baseline come from the per-evaluated-cycle fast path: the incrementally-maintained per-bank candidate cache (policy OrderEpoch contract, DESIGN.md section 16), deferred closed-form BLP accounting, intrusive request buffers with O(1) removal, request and trace-item recycling (zero steady-state allocations, see allocs_per_op), and slot-tagged completion routing that removed the per-request map lookups.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_5.json"

cat > BENCH_3.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkIndependentChannels",
      "workload": "16-core random mix, 4 independent channels under PAR-BS",
      "unit": "DRAMcycles/s",
      "after": $indch,
      "higher_is_better": true
    }
  ],
  "gomaxprocs": $(nproc),
  "note": "The four channel shards are stepped in channel order on the run goroutine by the same next-event loop as lock-step runs (DESIGN.md section 14). An earlier engine spread them over worker goroutines with a barrier per DRAM cycle; it lost to sequential stepping on every host measured, so it was removed.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_3.json"

# Single-core extremes: DRAM-idle compute-bound (povray) vs memory-stalled
# stream (matlab), event clock vs ForceTicked.
metric() { # metric <bench-regex> <unit>
	printf '%s\n' "$out" | awk -v re="$1" -v unit="$2" \
		'$0 ~ re {for (i=1;i<NF;i++) if ($(i+1)==unit) print $i}'
}
pov_ev="$(metric 'BenchmarkIdleSingleCore/povray/event-clock' 'DRAMcycles/s')"
pov_ti="$(metric 'BenchmarkIdleSingleCore/povray/ticked' 'DRAMcycles/s')"
pov_sk="$(metric 'BenchmarkIdleSingleCore/povray/event-clock' 'skipped%')"
mat_ev="$(metric 'BenchmarkIdleSingleCore/matlab/event-clock' 'DRAMcycles/s')"
mat_ti="$(metric 'BenchmarkIdleSingleCore/matlab/ticked' 'DRAMcycles/s')"
mat_sk="$(metric 'BenchmarkIdleSingleCore/matlab/event-clock' 'skipped%')"
[ -n "$pov_ev" ] && [ -n "$pov_ti" ] && [ -n "$pov_sk" ] && \
	[ -n "$mat_ev" ] && [ -n "$mat_ti" ] && [ -n "$mat_sk" ] || {
	echo "bench.sh: could not parse IdleSingleCore output" >&2
	exit 1
}
pov_x="$(awk -v e="$pov_ev" -v t="$pov_ti" 'BEGIN { printf "%.2f", e / t }')"
mat_x="$(awk -v e="$mat_ev" -v t="$mat_ti" 'BEGIN { printf "%.2f", e / t }')"

cat > BENCH_4.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkIdleSingleCore/povray",
      "workload": "single povray core (0.03 MPKI, DRAM idle between requests) under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": $pov_ti,
      "after": $pov_ev,
      "speedup": $pov_x,
      "skipped_pct": $pov_sk,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkIdleSingleCore/matlab",
      "workload": "single matlab stream core (78.4 MPKI, memory-stalled) under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": $mat_ti,
      "after": $mat_ev,
      "speedup": $mat_x,
      "skipped_pct": $mat_sk,
      "higher_is_better": true
    }
  ],
  "baseline": "Config.ForceTicked (every DRAM cycle evaluated)",
  "note": "Honest result: the next-event clock may only jump when every core is memory-blocked, so a DRAM-idle but compute-bound core (povray) skips under 1% of cycles and its modest win comes from controller-tick elision, not cycle jumping. The clock's real win is on memory-stalled cores (matlab: ~70% of cycles skipped across known DRAM-latency intervals). 'Idle DRAM' and 'skippable cycles' are different things in a cycle-coupled CPU+DRAM model.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_4.json"
