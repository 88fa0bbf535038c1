#!/usr/bin/env bash
# Runs the scale benchmarks with pinned iteration counts (so runs are
# comparable across machines and PRs) and writes BENCH_scale.json, the
# performance trajectory future PRs are measured against.
#
# Usage: scripts/bench.sh [output.json] [cpu-profile.out]
#
# With a second argument the scheduler-throughput run also captures a
# host CPU profile (view with `go tool pprof <profile>`); CI uploads it
# as a build artifact so hot-path changes ship with their flame graph.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_scale.json}"
profile="${2:-}"

prof_args=()
if [ -n "$profile" ]; then
  prof_args=(-cpuprofile "$profile")
fi
sched=$(go test -run xxx -bench 'BenchmarkSchedulerThroughput$' -benchtime 1x -timeout 1h "${prof_args[@]}" . | grep '^BenchmarkSchedulerThroughput')
kernel=$(go test -run xxx -bench 'BenchmarkKernelEventRate$' -benchtime 2000000x . | grep '^BenchmarkKernelEventRate')
# Process handoff on its own, at one P like every simbench simulation.
handoff=$(go test -run xxx -bench 'BenchmarkContextSwitch$' -benchtime 1000000x -cpu 1 ./internal/sim | grep '^BenchmarkContextSwitch')
# One EASY backfill pass over a 1700-deep queue on a 2048-node fleet.
backfill=$(go test -run xxx -bench 'BenchmarkBackfillScan$' -benchtime 200x ./internal/slurm | grep '^BenchmarkBackfillScan')
# One 32-rank Bcast rendezvous, the collective of every DMR check.
bcast=$(go test -run xxx -bench 'BenchmarkBcastRendezvous$' -benchtime 200000x -cpu 1 ./internal/mpi | grep '^BenchmarkBcastRendezvous')

# Bench lines look like:
#   BenchmarkSchedulerThroughput  1  428994330 ns/op  295427 events/s  11655 jobs/s
#   BenchmarkKernelEventRate  2000000  14.61 ns/op  68429668 events/s
#   BenchmarkContextSwitch  1000000  812.3 ns/op
#   BenchmarkBackfillScan  200  170000 ns/op  169990 ns/pass  9600 B/op  15 allocs/op
#   BenchmarkBcastRendezvous  200000  9961 ns/op  9961 ns/collective  0 B/op  0 allocs/op
# Metrics are located by the unit name that follows them (the value is
# the preceding field), so added metrics or -benchmem cannot silently
# shift the columns.
awk -v sched="$sched" -v kernel="$kernel" -v handoff="$handoff" -v backfill="$backfill" -v bcast="$bcast" '
function metric(line, unit,    f, n) {
  n = split(line, f)
  for (i = 2; i <= n; i++) if (f[i] == unit) return f[i-1]
  print "bench.sh: metric " unit " not found in: " line > "/dev/stderr"
  exit 1
}
BEGIN {
  printf "{\n"
  printf "  \"scheduler_throughput_1024n_5000j\": {\"ns_per_run\": %s, \"events_per_sec\": %s, \"jobs_per_sec\": %s},\n", \
    metric(sched, "ns/op"), metric(sched, "events/s"), metric(sched, "jobs/s")
  printf "  \"kernel_event_rate\": {\"ns_per_event\": %s, \"events_per_sec\": %s},\n", \
    metric(kernel, "ns/op"), metric(kernel, "events/s")
  printf "  \"kernel_handoff\": {\"ns_per_op\": %s},\n", metric(handoff, "ns/op")
  printf "  \"slurm_backfill_pass\": {\"ns_per_pass\": %s},\n", metric(backfill, "ns/pass")
  printf "  \"mpi_bcast\": {\"ns_per_collective\": %s}\n", metric(bcast, "ns/collective")
  printf "}\n"
}' > "$out"
echo "wrote $out"
cat "$out"

if [ -n "$profile" ]; then
  rm -f repro.test # -cpuprofile side product; the profile embeds its symbols
  echo "wrote $profile"
fi
