#!/usr/bin/env bash
# Per-thread scheduler counts of every running srnode over a 5 s window:
# what a CPU profile cannot show, because pprof samples only threads that
# hold a P and so never charges sysmon, and counts no sleeps at all.
#
#   bash bench/run.sh --workload oltp-mem --seed 7 --seconds 20 --trace 0 &
#   sleep 12; make threadstat     # inside the measured phase
#
# It reads /proc/PID/task/*/schedstat (run time in ns) and .../status
# (voluntary and involuntary context switches) of every srnode twice, 5 s
# apart, and prints per process: the CPU time of all its threads, their
# voluntary switches (a thread going to sleep) and involuntary ones
# (preemptions), and the CPU time of sysmon, the runtime's monitor thread —
# the process's lowest thread ID above its process ID, since the runtime
# starts it before any other thread. When the srnodes' control ports answer
# GET /metrics, it also prints the commits the cluster made in the window
# (every site's sr_txn_commit_latency_us_count) and each process's voluntary
# switches per commit. Linux only.
set -euo pipefail

window=5
pids=$(pgrep -f '^[^ ]*/srnode -site' || true)
if [[ -z $pids ]]; then
	echo "threadstat: no srnode process is running" >&2
	exit 1
fi

# snap prints one line per thread: pid tid run_ns voluntary involuntary.
snap() {
	local p
	for p in $pids; do
		awk -v p="$p" '
			{ split(FILENAME, f, "/") }
			FILENAME ~ /schedstat$/ { run[f[5]] = $1; next }
			/^voluntary_ctxt_switches/ { vol[f[5]] = $2 }
			/^nonvoluntary_ctxt_switches/ { inv[f[5]] = $2 }
			END { for (t in run) print p, t, run[t], vol[t] + 0, inv[t] + 0 }
		' /proc/"$p"/task/*/schedstat /proc/"$p"/task/*/status 2>/dev/null || true
	done
}

# cmdline prints the command line of process $1, and fails once it has
# exited (a zombie's is empty).
cmdline() {
	local cmd
	cmd=$(tr '\0' ' ' 2>/dev/null <"/proc/$1/cmdline") && [[ -n $cmd ]] && echo "$cmd"
}

# The -site and -control flags of each srnode, read once at the start: a
# process that exits inside the window (the ledger tearing down a set-up
# cluster, crash-recover killing site 3) has no command line left to read.
declare -A site ctl
live=""
for p in $pids; do
	cmd=$(cmdline "$p") || continue
	site[$p]=$(sed -n 's/.* -site \([^ ]*\).*/\1/p' <<<"$cmd")
	ctl[$p]=$(sed -n 's/.* -control \([^ ]*\).*/\1/p' <<<"$cmd")
	live="$live $p"
done
pids=$live

# commits prints the cluster's commits so far, summed over every srnode's
# control port, or nothing if a port does not answer.
commits() {
	local p total=0 n
	for p in $pids; do
		[[ -n ${ctl[$p]} ]] || return 0
		n=$(curl -sf --max-time 2 "http://${ctl[$p]}/metrics" |
			awk '/^sr_txn_commit_latency_us_count/ { s += $2 } END { print s + 0 }') || return 0
		total=$((total + n))
	done
	echo "$total"
}

c0=$(commits)
a=$(snap)
sleep "$window"
b=$(snap)
c1=$(commits)
n=0
if [[ -n $c0 && -n $c1 ]]; then
	n=$((c1 - c0))
	echo "cluster commits in ${window} s: $n"
fi

# Report the processes that lived through the window; name the rest.
sites=""
for p in $pids; do
	if cmdline "$p" >/dev/null; then
		sites="$sites $p=${site[$p]}"
	else
		echo "pid $p exited during the window"
	fi
done
printf "%-8s %4s %10s %10s %11s %10s %10s\n" pid site cpu_ms voluntary involuntary sysmon_ms vol/commit
awk -v commits="$n" -v sites="$sites" '
	BEGIN {
		split(sites, kv, " ")
		for (i in kv) { split(kv[i], x, "="); site[x[1]] = x[2] }
	}
	NR == FNR { run[$1, $2] = $3; vol[$1, $2] = $4; inv[$1, $2] = $5; next }
	{
		p = $1; t = $2
		ms = ($3 - run[p, t]) / 1e6
		cpu[p] += ms; v[p] += $4 - vol[p, t]; iv[p] += $5 - inv[p, t]
		if (t != p && (!(p in sysmon) || t + 0 < sysmon[p] + 0)) { sysmon[p] = t; sysms[p] = ms }
	}
	END {
		for (p in cpu) {
			if (!(p in site)) continue
			per = commits > 0 ? sprintf("%.3f", v[p] / commits) : "-"
			printf "%-8s %4s %10.1f %10d %11d %10.1f %10s\n", p, site[p], cpu[p], v[p], iv[p], sysms[p], per
		}
	}' <(echo "$a") <(echo "$b") | sort -k2,2n
