#!/usr/bin/env bash
# Runs perfbench on two checkouts of this repository in alternating
# pairs, so that a before/after comparison sees the same host conditions
# on both sides:
#
#   bash scripts/perfpairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS [SEED]]
#
# Each checkout builds and runs its own perfbench through its own
# perfbench/run.sh (so the build cache and svc-backlog's journal stay in
# that checkout's .bench_build/). Pair i runs the parent first when i is
# even and the change first when i is odd. SECONDS defaults to 20 and
# SEED to 1; every run is untraced.
#
# Output, on stdout: one JSON object per run and per line, holding the
# side ("parent" or "change"), the pair index, the workload, the run
# length, the host (Go version, GOMAXPROCS, CPU count, CPU model) and
# perfbench's own result line. A run that fails stops the script with
# exit status 1.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS [SEED]]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=${5:-20}
seed=${6:-1}

go_version=$(go env GOVERSION)
cpus=$(getconf _NPROCESSORS_ONLN)
cpu_model=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)
cpu_model=${cpu_model//\\/\\\\}
cpu_model=${cpu_model//\"/\\\"}

# run SIDE DIR PAIR: one perfbench run, printed as one JSON line.
run() {
	local side=$1 dir=$2 pair=$3 out result procs
	if ! out=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
		printf '%s\n' "$out" >&2
		echo "perfpairs: $side run $pair of $workload failed in $dir" >&2
		exit 1
	fi
	result=$(printf '%s\n' "$out" | grep '^{' | tail -n 1)
	procs=$(printf '%s\n' "$out" | sed -n 's/.*GOMAXPROCS \([0-9]*\) of.*/\1/p' | head -n 1)
	printf '{"side":"%s","pair":%d,"workload":"%s","seconds":%s,"seed":%s,"host":{"go":"%s","gomaxprocs":%s,"cpus":%s,"cpu_model":"%s"},"result":%s}\n' \
		"$side" "$pair" "$workload" "$seconds" "$seed" "$go_version" "${procs:-0}" "$cpus" "$cpu_model" "$result"
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done
