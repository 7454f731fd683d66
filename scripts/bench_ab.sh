#!/usr/bin/env bash
# Paired A/B of the frozen repo benchmark: <parent-ref> against HEAD.
#
# Builds each side's benchmark/ once per commit in a detached `git
# worktree` under target/ab/ (never in the working tree, so the tracked
# benchmark/Cargo.lock is never rewritten), keeps the binary in
# target/ab/bin/<commit>/ and removes the worktree. Then runs `pairs`
# alternating pairs of fresh processes
#
#   benchmark --workload W --seed S --seconds SECS --trace 0
#
# from target/ab/run/, the side that runs first flipping every pair, and
# prints every process (its three metrics, the RFDet-ci and pthreads
# medians from its stderr line, failed/attempted) and, per metric,
# median [Q1,Q3] per side, ratio = HEAD median / parent median,
# lower-wins = pairs where HEAD is lower / pairs not tied, and the
# parent's IQR and range as shares of its median, judged against the
# metric's BENCHMARK.json bound - the layout of the results/*_ab.txt
# files, which open with the provenance header printed before the first
# pair (UTC date, nproc, both commits, rustc -V, the resolved argument
# list). Nothing is discarded. Run nothing else on the host meanwhile.
#
# The optional sixth argument is a comma-separated list of per-layer
# metric names (BENCHMARK.json "per_layer", e.g.
# core.lock_pair_ns,core.sync_op_ms). With it, each pair also runs one
#
#   benchmark --workload W --seed S --seconds SECS --trace 1
#
# process per side, in the same order, after the timed ones, and the
# summary prints each listed metric with the same median [Q1,Q3], ratio
# and lower-wins line, without a bound verdict (per-layer metrics have
# no bound).
#
# Usage: scripts/bench_ab.sh <parent-ref> <workload> [pairs] [seed] [seconds] [layers]
#   defaults: 10 pairs, seed 20140215 (held-out: 77003121), 10 seconds,
#   no per-layer metrics
set -euo pipefail

usage="usage: scripts/bench_ab.sh <parent-ref> <workload> [pairs] [seed] [seconds] [layers]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-20140215}
secs=${5:-10}
layers=${6:-}
root=$(git rev-parse --show-toplevel)
ab=$root/target/ab
mkdir -p "$ab/run"

# Prints the short hash of $1, building its benchmark binary first if
# target/ab/bin/ does not hold it yet.
build() {
    local sha tree
    sha=$(git -C "$root" rev-parse --short=12 "$1^{commit}")
    if [ ! -x "$ab/bin/$sha/benchmark" ]; then
        tree=$ab/tree-$sha
        git -C "$root" worktree add --force --detach "$tree" "$sha" >&2
        CARGO_TARGET_DIR=$ab/build cargo build --release --offline --quiet \
            --manifest-path "$tree/benchmark/Cargo.toml" >&2
        mkdir -p "$ab/bin/$sha"
        cp "$ab/build/release/benchmark" "$ab/bin/$sha/"
        git -C "$root" worktree remove --force "$tree"
    fi
    echo "$sha"
}

parent=$(build "$base")
change=$(build HEAD)
# Provenance, before the first pair, so every results/*_ab.txt opens
# with it: when, where, which commits, which compiler, which arguments.
echo "== provenance  $(date -u +%Y-%m-%dT%H:%M:%SZ)  nproc $(nproc)  $(rustc -V)"
echo "== parent $(git -C "$root" rev-parse "$base^{commit}")  change $(git -C "$root" rev-parse HEAD)"
echo "== args: scripts/bench_ab.sh $base $workload $pairs $seed $secs ${layers:-(no layers)}"
log=$ab/run/$workload-$seed-$parent-$change.log
: >"$log"
: >"$log.layers"
cd "$ab/run"
# Runs one benchmark process of side $2 in pair $1 (first side $3) with
# --trace $4 and appends its line to log file $5.
run() {
    local sha=$parent status=0 json medians
    if [ "$2" = change ]; then sha=$change; fi
    json=$("$ab/bin/$sha/benchmark" --workload "$workload" --seed "$seed" \
        --seconds "$secs" --trace "$4" 2>stderr.txt) || status=$?
    medians=$(grep -o 'RFDet-ci median.*' stderr.txt || true)
    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$status" "$medians" "$json" >>"$5"
}
for ((i = 0; i < pairs; i++)); do
    order="parent change"
    if ((i % 2 == 1)); then order="change parent"; fi
    for side in $order; do run "$i" "$side" "${order%% *}" 0 "$log"; done
    if [ -n "$layers" ]; then
        for side in $order; do run "$i" "$side" "${order%% *}" 1 "$log.layers"; done
    fi
done

python3 - "$log" "$root/BENCHMARK.json" "$workload" "$seed" "$pairs" "$parent" "$change" \
    "$layers" <<'EOF'
import json, re, statistics, sys

log, manifest, workload, seed, pairs, parent, change, layers = sys.argv[1:]
bounds = {m["name"]: m["bound"] for m in json.load(open(manifest))["end_to_end"]}

def read(path):
    rows = []
    for line in open(path):
        pair, side, first, status, medians, out = line.rstrip("\n").split("\t")
        r = json.loads(out) if out.startswith("{") else {"correct": False, "metrics": {}}
        v = {k: m["value"] for k, m in r["metrics"].items()}
        m = re.search(r"median ([\d.]+) ms over (\d+) runs, pthreads ([\d.]+) ms", medians)
        if m:
            v["RFDet-ci ms"], v["pthreads ms"] = float(m[1]), float(m[3])
        rows.append(dict(pair=int(pair), side=side, first=first, status=int(status),
                         v=v, rounds=m[2] if m else "?", r=r))
    return rows

rows = read(log)
traced = read(log + ".layers")

def q(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def fmt(x):
    return f"{x:.4g}"

def side(rows, s, key):
    return {r["pair"]: r["v"][key] for r in rows if r["side"] == s and key in r["v"]}

fa = {s: [sum(r["r"].get(k, 0) for r in rows if r["side"] == s) for k in ("failed", "attempted")]
      for s in ("parent", "change")}
print(f"== seed {seed} {workload}  pairs={pairs}  parent {parent} change {change}  "
      f"failed/attempted parent {fa['parent']} change {fa['change']}")
keys = [(rows, k) for k in ["slowdown_x", "footprint_mb", "setup_s", "RFDet-ci ms", "pthreads ms"]]
keys += [(traced, k) for k in layers.split(",") if k]
for src, key in keys:
    p, c = side(src, "parent", key), side(src, "change", key)
    if not p or not c:
        continue
    (p1, pm, p3), (c1, cm, c3) = q(p.values()), q(c.values())
    both = [i for i in p if i in c and p[i] != c[i]]
    wins = sum(c[i] < p[i] for i in both)
    iqr, rng = (p3 - p1) / pm, (max(p.values()) - min(p.values())) / pm
    line = (f"  {key:<13} parent {fmt(pm)} [{fmt(p1)},{fmt(p3)}] change {fmt(cm)} "
            f"[{fmt(c1)},{fmt(c3)}] ratio {cm / pm:.3f} lower-wins {wins}/{len(both)} "
            f"parent-IQR {100 * iqr:.1f}% range {100 * rng:.1f}%")
    if key in bounds:
        b = bounds[key]
        verdict = ("OUTSIDE BOUND" if cm > pm * (1 + b) else
                   f"unresolved (parent range {100 * rng:.0f}% > bound)" if rng > b else
                   "inside bound")
        line += f" bound {100 * b:.0f}% -> {verdict}"
    print(line)
bad = sum(1 for r in rows + traced if r["status"] or not r["r"].get("correct"))
print(f"processes not `correct` or non-zero exit: {bad} of {len(rows) + len(traced)}")
print("every process:")
for r in rows:
    v = r["v"]
    print(f"  seed {seed} {workload}  pair {r['pair']} {r['side']} (first: {r['first']}) "
          + " ".join(f"{k} {v[k]:.4f}" for k in ("slowdown_x", "footprint_mb", "setup_s") if k in v)
          + f" RFDet-ci {v.get('RFDet-ci ms', float('nan')):.3f} ms / pthreads "
          f"{v.get('pthreads ms', float('nan')):.3f} ms over {r['rounds']} rounds "
          f"failed/attempted {r['r'].get('failed', '?')}/{r['r'].get('attempted', '?')} "
          f"correct {str(r['r'].get('correct', False)).lower()}")
EOF
