#!/usr/bin/env bash
# Per-thread scheduler counts and garbage of every running srnode over a 5 s
# window: what a CPU profile cannot show, because pprof samples only threads
# that hold a P and so never charges sysmon, and counts no sleeps at all.
#
#   bash bench/run.sh --workload oltp-mem --seed 7 --seconds 20 --trace 0 &
#   make threadstat     # waits for the measured phase, then samples it
#
# It first waits, polling once a second for at most 60 s, until the ledger's
# measured cluster is the one running: the set of srnode processes is the
# same as a second ago, each has been alive at least 3 s, and every control
# port that coordinates user commits reports more of them than a second ago
# (a site that only participates, like the ledger's site 3, coordinates none;
# a respawned site's own recovery commits are control and copier ones).
# If that does not hold within the bound it says which condition failed and
# exits 1 without sampling.
#
# It then reads /proc/PID/task/*/schedstat (run time in ns) and
# .../status (voluntary and involuntary context switches) of every srnode
# twice, 5 s apart, and prints per process: the CPU time of all its threads,
# their voluntary switches (a thread going to sleep) and involuntary ones
# (preemptions), and the CPU time of sysmon, the runtime's monitor thread —
# the process's lowest thread ID above its process ID, since the runtime
# starts it before any other thread. From the control ports it also prints
# the commits the cluster made in the window (every site's
# sr_txn_commit_latency_us_count) and, per process, voluntary switches,
# objects allocated and bytes allocated per cluster commit. The last two are
# the runtime's exact Mallocs and TotalAlloc counters, read from
# GET /debug/pprof/heap?debug=1 at both ends of the window, not a sampled
# profile.
#
# From the same ports it prints how the window's posted decisions left
# their outbox — carried ahead of a later frame to the same peer, written
# because the peer asked, or written by the transport's sweep
# (sr_net_posts_carried_total, sr_net_posts_asked_total,
# sr_net_posts_swept_total) — and the asks sent (sr_net_asks_sent_total),
# and the mean time from an attempt's begin to its answer at the commit
# point next to the mean commit latency (sr_txn_answer_latency_us,
# sr_txn_commit_latency_us): their difference is phase two's mean.
#
# It also prints TCP segments per cluster commit, split into data segments
# and pure ACKs: over the window, the delta of Tcp InSegs in /proc/net/snmp
# is every segment, that of TcpExt TCPOrigDataSent in /proc/net/netstat the
# data segments, and pure ACKs are the rest (with the few SYN, FIN and RST
# segments). On loopback every segment is received in the namespace that
# sent it, so sent and received counters meet. These counters cover the
# whole network namespace — the load generator's HTTP traffic and every
# other process's sockets in it — not the srnodes alone.
#
# If an srnode exits inside the window (crash-recover's SIGKILL of site 3,
# the set-up clusters' teardown), the window is not used: the script says
# so, waits again as above, and also until as many srnodes run as the first
# window had — after crash-recover's kill, until site 3 is respawned, not
# on the two survivors — then samples one fresh window and says which
# srnodes it sampled. Only if an srnode exits inside that one too are the
# per-commit columns printed as "-". At --seconds 20, crash-recover's last
# phase ends before the respawned site is min_age old and a window long;
# give that run --seconds 30. Linux only.
set -euo pipefail

window=5
settle_limit=60 # seconds to wait for the measured phase
min_age=3       # seconds every srnode must have been alive

srnodes() { pgrep -f '^[^ ]*/srnode -site' | sort -n | tr '\n' ' ' || true; }

# cmdline prints the command line of process $1, and fails once it has
# exited (a zombie's is empty).
cmdline() {
	local cmd
	cmd=$(tr '\0' ' ' 2>/dev/null <"/proc/$1/cmdline") && [[ -n $cmd ]] && echo "$cmd"
}

# flag prints the value of flag $2 on process $1's command line.
flag() { sed -n "s/.* $2 \([^ ]*\).*/\1/p" <<<"$(cmdline "$1")"; }

# coordinated prints the commits the site behind control address $1 has
# coordinated so far, of every class or, with $2 set, the user commits only,
# and fails if the port does not answer.
coordinated() {
	local metric=sr_txn_commit_latency_us_count
	[[ -z ${2:-} ]] || metric=sr_txn_commit_user_total
	curl -sf --max-time 2 "http://$1/metrics" |
		awk -v m="$metric" 'index($1, m "{") == 1 || $1 == m { s += $2 } END { print s + 0 }'
}

# settle waits for the measured phase: at least $1 srnodes (default 1), the
# same as a second ago, each alive at least min_age seconds, and every
# site's user commit count moving, if it has one. It leaves their pids in pids, or exits 1
# saying why not.
settle() {
	local want=${1:-1} waited p age addr n ready moving prev="" why="no srnode process is running"
	local -A seen=()
	for ((waited = 0; ; waited++)); do
		pids=$(srnodes)
		ready=1
		if [[ -z $pids ]]; then
			ready=0 why="no srnode process is running"
		elif (($(wc -w <<<"$pids") < want)); then
			ready=0 why="$(wc -w <<<"$pids") of the $want srnodes of the first window are running"
		elif [[ $pids != "$prev" ]]; then
			ready=0 why="the set of srnode processes is still changing"
		fi
		moving=0
		for p in $pids; do
			age=$(ps -o etimes= -p "$p" 2>/dev/null | tr -d ' ') || age=0
			if ((${age:-0} < min_age)); then
				ready=0 why="srnode $p has been alive less than ${min_age} s"
			fi
			addr=$(flag "$p" -control)
			if [[ -z $addr ]] || ! n=$(coordinated "$addr" user); then
				ready=0 why="srnode $p's control port does not answer"
				continue
			fi
			if ((n > 0)); then
				if [[ -n ${seen[$p]:-} ]] && ((n <= seen[$p])); then
					ready=0 why="site $(flag "$p" -site) committed nothing in the last second"
				fi
				moving=1
			fi
			seen[$p]=$n
		done
		if ((ready && moving && waited > 0)); then
			break
		fi
		((moving)) || [[ $ready == 0 ]] || why="no site's commit count is advancing"
		if ((waited >= settle_limit)); then
			echo "threadstat: gave up after ${settle_limit} s waiting for the measured phase: $why" >&2
			exit 1
		fi
		prev=$pids
		sleep 1
	done
}

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

# record reads the -site and -control flags of each srnode once, before the
# window: a process that exits inside it (crash-recover killing site 3) has
# no command line left to read. It drops from pids any that already exited.
declare -A site ctl
record() {
	local p live=""
	for p in $pids; do
		cmdline "$p" >/dev/null || continue
		site[$p]=$(flag "$p" -site)
		ctl[$p]=$(flag "$p" -control)
		live="$live $p"
	done
	pids=$live
}

# commits prints the cluster's commits so far, summed over every srnode's
# control port, or nothing if a port does not answer.
commits() {
	local p total=0 n
	for p in $pids; do
		[[ -n ${ctl[$p]} ]] || return 0
		n=$(coordinated "${ctl[$p]}") || return 0
		total=$((total + n))
	done
	echo "$total"
}

# posts prints, summed over every srnode's control port: posts carried,
# asked and swept, answer latency sum and count, commit latency sum and
# count, asks sent; nothing if a port does not answer.
posts() {
	local p out=""
	for p in $pids; do
		[[ -n ${ctl[$p]} ]] || return 0
		out+=$(curl -sf --max-time 2 "http://${ctl[$p]}/metrics") || return 0
		out+=$'\n'
	done
	awk '{ sub(/\{.*/, "", $1) } { v[$1] += $2 }
		END { printf "%.0f %.0f %.0f %.0f %.0f %.0f %.0f %.0f\n", v["sr_net_posts_carried_total"], v["sr_net_posts_asked_total"],
			v["sr_net_posts_swept_total"], v["sr_txn_answer_latency_us_sum"], v["sr_txn_answer_latency_us_count"],
			v["sr_txn_commit_latency_us_sum"], v["sr_txn_commit_latency_us_count"], v["sr_net_asks_sent_total"] }' <<<"$out"
}

# heap prints one line per srnode: pid mallocs total_alloc_bytes, the
# runtime's exact counters (GET /debug/pprof/heap?debug=1 ends with the
# process's runtime.MemStats).
heap() {
	local p
	for p in $pids; do
		curl -sf --max-time 2 "http://${ctl[$p]}/debug/pprof/heap?debug=1" |
			awk -v p="$p" '/^# Mallocs = / { m = $4 } /^# TotalAlloc = / { t = $4 }
				END { if (m != "") print p, m, t }' || true
	done
}

# segments prints the network namespace's TCP segments received so far and
# the data segments sent so far: Tcp InSegs and TcpExt TCPOrigDataSent. Each
# file holds a header line and a value line per protocol.
segments() {
	awk '$1 in hdr { for (i = 2; i <= NF; i++) val[$1, hdr[$1, i]] = $i; next }
		{ hdr[$1] = 1; for (i = 2; i <= NF; i++) hdr[$1, i] = $i }
		END { print val["Tcp:", "InSegs"] + 0, val["TcpExt:", "TCPOrigDataSent"] + 0 }' \
		/proc/net/snmp /proc/net/netstat
}

# sample takes one window over pids: the counters at both ends, and in
# exited the srnodes that did not live through it.
sample() {
	local p
	c0=$(commits)
	p0=$(posts)
	h0=$(heap)
	s0=$(segments)
	a=$(snap)
	sleep "$window"
	b=$(snap)
	s1=$(segments)
	h1=$(heap)
	p1=$(posts)
	c1=$(commits)
	exited=""
	for p in $pids; do
		cmdline "$p" >/dev/null || exited="$exited $p"
	done
}

settle
record
sample
if [[ -n $exited ]]; then
	for p in $exited; do
		echo "threadstat: srnode $p (site ${site[$p]}) exited during the window; sampling a fresh window once the cluster settles"
	done
	settle "$(wc -w <<<"$pids")"
	record
	sampled=""
	for p in $pids; do
		sampled="$sampled $p (site ${site[$p]})"
	done
	echo "threadstat: fresh window over srnodes$sampled"
	sample
fi

n=0
if [[ -n $c0 && -n $c1 ]]; then
	n=$((c1 - c0))
	echo "cluster commits in ${window} s: $n"
fi
if ((n > 0)); then
	read -r in0 data0 <<<"$s0"
	read -r in1 data1 <<<"$s1"
	awk -v n="$n" -v segs=$((in1 - in0)) -v data=$((data1 - data0)) 'BEGIN {
		printf "TCP segments per cluster commit, whole network namespace: %.2f data, %.2f pure ACKs\n", data / n, (segs - data) / n
	}'
fi
if [[ -n $p0 && -n $p1 ]]; then
	awk -v a="$p0" -v b="$p1" 'BEGIN {
		split(a, x, " "); split(b, y, " ")
		for (i = 1; i <= 8; i++) d[i] = y[i] - x[i]
		n = d[1] + d[2] + d[3]
		if (n > 0)
			printf "posted decisions: %d, %.1f %% carried by a later frame, %.1f %% asked for (%d), %.1f %% swept (%d); asks sent: %d\n",
				n, 100 * d[1] / n, 100 * d[2] / n, d[2], 100 * d[3] / n, d[3], d[8]
		if (d[5] > 0 && d[7] > 0)
			printf "mean answer %.0f us, mean commit %.0f us: phase two %.0f us\n", d[4] / d[5], d[6] / d[7], d[6] / d[7] - d[4] / d[5]
	}'
fi

# Report the processes that lived through the window; name the rest.
sites=""
for p in $pids; do
	if [[ " $exited " != *" $p "* ]]; then
		sites="$sites $p=${site[$p]}"
	else
		echo "pid $p exited during the window"
	fi
done
printf "%-8s %4s %10s %10s %11s %10s %10s %12s %12s\n" pid site cpu_ms voluntary involuntary sysmon_ms vol/commit objects/commit bytes/commit
awk -v commits="$n" -v sites="$sites" -v h0="$h0" -v h1="$h1" '
	BEGIN {
		split(sites, kv, " ")
		for (i in kv) { split(kv[i], x, "="); site[x[1]] = x[2] }
		split(h0, l, "\n"); for (i in l) { split(l[i], x, " "); m0[x[1]] = x[2]; t0[x[1]] = x[3] }
		split(h1, l, "\n"); for (i in l) { split(l[i], x, " "); m1[x[1]] = x[2]; t1[x[1]] = x[3] }
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
			per = objs = bytes = "-"
			if (commits > 0) {
				per = sprintf("%.3f", v[p] / commits)
				if ((p in m0) && (p in m1)) {
					objs = sprintf("%.1f", (m1[p] - m0[p]) / commits)
					bytes = sprintf("%.0f", (t1[p] - t0[p]) / commits)
				}
			}
			printf "%-8s %4s %10.1f %10d %11d %10.1f %10s %12s %12s\n", p, site[p], cpu[p], v[p], iv[p], sysms[p], per, objs, bytes
		}
	}' <(echo "$a") <(echo "$b") | sort -k2,2n
