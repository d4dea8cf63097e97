#!/usr/bin/env bash
# CI gate: build, test, lint. Pass --offline (or set CI_OFFLINE=1) to run
# against vendored dependencies only — the default in the sandboxed build
# environment, where crates.io is unreachable.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" || "${CI_OFFLINE:-}" == "1" ]]; then
    OFFLINE=(--offline)
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release --workspace "${OFFLINE[@]}"

echo "== cargo test -q =="
cargo test -q --workspace "${OFFLINE[@]}"

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets "${OFFLINE[@]}" -- -D warnings

echo "== clippy (slab datapath + exhaustive-schedule hook) =="
# The feature-gated phase-2 override is outside the workspace clippy run
# above; lint it (and the slab module it exercises) explicitly.
cargo clippy -p noc-sim --features exhaustive --all-targets "${OFFLINE[@]}" -- -D warnings

echo "== exhaustive schedule permutations (2x2, all 24 orders) =="
cargo test -q -p noc-sim --features exhaustive --test exhaustive_order "${OFFLINE[@]}"

echo "== zero-allocation steady state (counting global allocator) =="
cargo test -q -p noc-bench --test zero_alloc "${OFFLINE[@]}"

echo "== perfbench self-test (simulated statistics match the golden digests) =="
# A kernel change that alters any simulated statistic, event counter or
# nodes_stepped on the benchmark workloads fails here.
cargo build --release --manifest-path perfbench/Cargo.toml "${OFFLINE[@]}"
cargo run --release --quiet --manifest-path perfbench/Cargo.toml "${OFFLINE[@]}" -- --self-test

echo "== network_step bench smoke (every point once, schema v2) =="
# One rep of every point: the loaded and low-load points that exercise the
# activity-driven scheduler, the near-idle leap points that drive
# run_until through the idle cycle-leap path, the SDM point and the
# 1024-node points.
NS_TMP="$(mktemp -d)"
cargo run --release -p noc-bench --bin network_step "${OFFLINE[@]}" -- \
    --quick --reps 1 --json-out "$NS_TMP/ns.json" > /dev/null
python3 - "$NS_TMP/ns.json" <<'PY'
import json, sys
env = json.load(open(sys.argv[1]))
assert env["schema_version"] == 2, env["schema_version"]
assert env["bench"] == "network_step"
names = [p["name"] for p in env["points"]]
assert names == [
    "packet_64n_0.06flits",
    "packet_64n_0.004flits",
    "packet_64n_0.0004flits_leap",
    "tdm_hybrid_64n_0.06flits",
    "tdm_hybrid_64n_0.004flits",
    "tdm_hybrid_64n_0.0004flits_leap",
    "sdm_hybrid_64n_0.004flits",
    "packet_1024n_0.06flits",
    "packet_1024n_0.004flits",
    "packet_1024n_torus_0.06flits",
    "tdm_hybrid_1024n_0.06flits",
    "tdm_hybrid_1024n_0.004flits",
    "tdm_hybrid_1024n_torus_0.004flits",
], names
for p in env["points"]:
    assert p["best_ns_per_cycle"] > 0 and p["packets_delivered"] > 0, p["name"]
    assert len(p["wall_ns"]) == env["reps"], p["name"]
    assert p["accepted_flits_per_node_cycle"] > 0, p["name"]
    assert isinstance(p["saturated"], bool), p["name"]
print(f"network_step JSON ok: {len(names)} points, "
      f"{sum(p['saturated'] for p in env['points'])} saturated")
PY
rm -rf "$NS_TMP"

echo "== sweep determinism (--sweep-threads 1 vs 4, byte-identical JSON) =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cat > "$SWEEP_TMP/sweep.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 11 },
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 12 },
  { "backend": "PacketVc4", "mesh": 4,
    "traffic": { "pattern": "TR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 13 },
  { "backend": "HybridSdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.12 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 14 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/t1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/t4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/t1.json" "$SWEEP_TMP/t4.json"
echo "sweep JSON identical across thread counts"

echo "== tracing on/off bit-identity (envelope data block) =="
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/traced_sweep.json" \
    --trace-out "$SWEEP_TMP/sweeptrace.json" > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
plain = json.load(open(f"{tmp}/t1.json"))
traced = json.load(open(f"{tmp}/traced_sweep.json"))
assert plain["data"] == traced["data"], "tracing perturbed the measurements"
assert "telemetry" not in plain, "untraced run must not add a telemetry block"
assert "telemetry" in traced, "traced run missing its telemetry block"
print("data blocks identical with tracing on vs off")
PY

echo "== 256-node torus smoke (packet + TDM, dateline VC classes) =="
cat > "$SWEEP_TMP/torus.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 16, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1200, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 21 },
  { "backend": "HybridTdmVc4", "mesh": 16, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1200, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 22 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/torus.json" --json "$SWEEP_TMP/torus1.json" --sweep-threads 1 > /dev/null
echo "256-node torus scenarios ran"

echo "== non-mesh sweep determinism (torus + cmesh, --sweep-threads 1 vs 4) =="
cat > "$SWEEP_TMP/topo_sweep.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 4, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 23 },
  { "backend": "HybridTdmVc4", "mesh": 4, "topology": "cmesh", "concentration": 2,
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 24 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/topo_sweep.json" --json "$SWEEP_TMP/topo1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/topo_sweep.json" --json "$SWEEP_TMP/topo4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/topo1.json" "$SWEEP_TMP/topo4.json"
echo "non-mesh sweep JSON identical across thread counts"

echo "== 1024-node slab smoke (packet + TDM, sweep-thread determinism) =="
# Kilo-node point on the flat flit-slab datapath: one shared allocation
# carries all 20480 VC rings; a short loaded run must be byte-identical
# across sweep-thread counts.
cat > "$SWEEP_TMP/kilo.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 32,
    "traffic": { "pattern": "UR", "rate": 0.06 },
    "phases": { "warmup_cycles": 200, "warmup_packets": 50,
                "measure_cycles": 600, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 51 },
  { "backend": "HybridTdmVc4", "mesh": 32,
    "traffic": { "pattern": "UR", "rate": 0.04 },
    "phases": { "warmup_cycles": 200, "warmup_packets": 50,
                "measure_cycles": 600, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 52 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/kilo.json" --json "$SWEEP_TMP/kilo1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/kilo.json" --json "$SWEEP_TMP/kilo2.json" --sweep-threads 2 > /dev/null
cmp "$SWEEP_TMP/kilo1.json" "$SWEEP_TMP/kilo2.json"
echo "1024-node slab smoke ok: JSON identical across thread counts"

echo "== traced TDM hetero scenario (Perfetto trace + heatmap + envelope v2) =="
cat > "$SWEEP_TMP/traced.json" <<'JSON'
[ {"backend": "HybridTdmVc4", "cpu": "AMMP", "gpu": "BLACKSCHOLES", "quick": true, "seed": 7} ]
JSON
cargo run --release -p noc-bench --bin fig8_hetero "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/traced.json" --json "$SWEEP_TMP/traced_out.json" \
    --trace-out "$SWEEP_TMP/trace.json" --trace-events all --trace-sample 8 \
    --metrics-window 2000 > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import collections, csv, json, sys
tmp = sys.argv[1]
trace = json.load(open(f"{tmp}/trace.json"))
evs = trace["traceEvents"]
cats = collections.Counter(e.get("cat") for e in evs if e.get("ph") != "M")
assert any(e["ph"] == "b" for e in evs), "no circuit span open"
assert any(e["ph"] == "e" for e in evs), "no circuit span close"
for cat in ("flit", "circuit"):
    assert cats[cat] > 0, f"no {cat} events in the trace"
env = json.load(open(f"{tmp}/traced_out.json"))
assert env["schema_version"] == 2, env["schema_version"]
tel = env["telemetry"]["specs"][0]
link = tel["link_flits"]
rows = list(csv.DictReader(open(f"{tmp}/trace.heatmap.csv")))
assert len(rows) == len(link), "heatmap rows vs envelope link count"
assert sum(int(r["flits"]) for r in rows) == sum(link), "heatmap sum vs envelope"
assert tel["windows"], "no metric windows despite --metrics-window"
print(f"trace ok: {len(evs)} events, categories {dict(cats)}, "
      f"{len(tel['windows'])} metric windows")
PY

echo "== checkpoint/restore determinism (continuous vs --checkpoint-out vs --checkpoint-from) =="
# Every backend on a mesh and on a torus: the torus runs the dateline VC
# classes, which the SDM router takes from the shared pipeline.
for BACKEND in PacketVc4 HybridTdmVc4 HybridSdmVc4; do
  for TOPO in mesh torus; do
    cat > "$SWEEP_TMP/ckpt_spec.json" <<JSON
[
  { "backend": "$BACKEND", "mesh": 4, "topology": "$TOPO",
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 31 }
]
JSON
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_cont.json" > /dev/null
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_out.json" \
        --checkpoint-out "$SWEEP_TMP/warm.ckpt" > /dev/null
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_from.json" \
        --checkpoint-from "$SWEEP_TMP/warm.ckpt" > /dev/null
    cmp "$SWEEP_TMP/ckpt_cont.json" "$SWEEP_TMP/ckpt_out.json"
    cmp "$SWEEP_TMP/ckpt_cont.json" "$SWEEP_TMP/ckpt_from.json"
    echo "$BACKEND ($TOPO): restore byte-identical to continuous run"
  done
done

echo "== traced warm-up capture and fork (--checkpoint-out/--checkpoint-from with --trace-out) =="
# Telemetry arms after the warm-up/restore boundary on these runs: the
# traced capture writes the same blob as the untraced one, and the traced
# fork measures exactly what the untraced fork does.
cat > "$SWEEP_TMP/fork_base.json" <<'JSON'
[ { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 31 } ]
JSON
cat > "$SWEEP_TMP/fork_points.json" <<'JSON'
[ { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "TR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 32 },
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.15 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 33 } ]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fork_base.json" --checkpoint-out "$SWEEP_TMP/fork_warm.ckpt" > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fork_base.json" --checkpoint-out "$SWEEP_TMP/fork_warm_traced.ckpt" \
    --trace-out "$SWEEP_TMP/capture_trace.json" > /dev/null
cmp "$SWEEP_TMP/fork_warm.ckpt" "$SWEEP_TMP/fork_warm_traced.ckpt"
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fork_points.json" --json "$SWEEP_TMP/fork_plain.json" \
    --checkpoint-from "$SWEEP_TMP/fork_warm.ckpt" > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fork_points.json" --json "$SWEEP_TMP/fork_traced.json" \
    --checkpoint-from "$SWEEP_TMP/fork_warm.ckpt" --trace-out "$SWEEP_TMP/fork_trace.json" > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
for name in ("fork_plain", "fork_traced"):
    env = json.load(open(f"{tmp}/{name}.json"))
    json.dump(env["data"], open(f"{tmp}/{name}.data.json", "w"), sort_keys=True)
assert "telemetry" in json.load(open(f"{tmp}/fork_traced.json")), "no telemetry block"
PY
cmp "$SWEEP_TMP/fork_plain.data.json" "$SWEEP_TMP/fork_traced.data.json"
test -s "$SWEEP_TMP/fork_trace-0.json" && test -s "$SWEEP_TMP/fork_trace-1.json"
echo "traced capture blob and traced fork data identical to untraced runs"

echo "== checkpoint version gate (a blob from an older layout is refused) =="
# The blob version is the u32 after the 8-byte magic; stamp the previous
# value into the SDM torus blob left by the loop above.
python3 - "$SWEEP_TMP/warm.ckpt" <<'PY'
import struct, sys
path = sys.argv[1]
blob = bytearray(open(path, "rb").read())
(ver,) = struct.unpack_from("<I", blob, 8)
assert ver >= 2, f"unexpected checkpoint version {ver}"
struct.pack_into("<I", blob, 8, ver - 1)
open(path, "wb").write(blob)
PY
if cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_old.json" \
    --checkpoint-from "$SWEEP_TMP/warm.ckpt" > /dev/null 2> "$SWEEP_TMP/ckpt_old.err"; then
    echo "an old-version checkpoint was accepted"
    exit 1
fi
grep -q "version" "$SWEEP_TMP/ckpt_old.err"
rm -f "$SWEEP_TMP/warm.ckpt"
echo "old-version checkpoint refused with a version error"

echo "== hostile spec nesting (a parse error with exit 2, not a stack overflow) =="
python3 -c 'print("[" * 200000)' > "$SWEEP_TMP/deep.json"
if cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/deep.json" > /dev/null 2> "$SWEEP_TMP/deep.err"; then
    DEEP_RC=0
else
    DEEP_RC=$?
fi
if [[ "$DEEP_RC" -ne 2 ]]; then
    echo "deep-nesting spec exited $DEEP_RC, expected 2"
    exit 1
fi
grep -q "nested deeper" "$SWEEP_TMP/deep.err"
echo "deep-nesting spec refused: $(tail -n 1 "$SWEEP_TMP/deep.err")"

echo "== transient-fault TDM scenario (kill + revive, repair FSM, drain) =="
cat > "$SWEEP_TMP/fault.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "TR", "rate": 0.15 },
    "phases": { "warmup_cycles": 500, "warmup_packets": 50,
                "measure_cycles": 3000, "measure_packets": 10000,
                "drain_cycles": 3000 },
    "seed": 9,
    "faults": [ { "at": 1400, "node": 5, "dir": "east" },
                { "at": 2000, "node": 5, "dir": "east", "up": true } ] }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fault.json" --json "$SWEEP_TMP/fault_out.json" > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
env = json.load(open(f"{tmp}/fault_out.json"))
stats = env["data"][0]["result"]["stats"]
# Fault counters serialize only when non-zero.
assert stats.get("link_down_events", 0) == 1, stats
assert stats.get("link_up_events", 0) == 1, stats
assert stats.get("repairs", 0) == 2, "kill + revive must each complete a repair"
assert stats.get("repair_cycle_sum", 0) > 0, "repair latency missing"
assert stats["packets_delivered"] > 100, "network starved across the outage"
spec = env["scenario"][0]
assert len(spec["faults"]) == 2, "fault schedule must echo into the envelope"
print(f"transient fault ok: repairs={stats['repairs']}, "
      f"mean repair latency {stats['repair_cycle_sum'] / stats['repairs']:.0f} cycles")
PY

echo "== noc-serve smoke (socket batch twice: second pass all cache hits, byte-identical) =="
SERVE_SOCK="$SWEEP_TMP/noc-serve.sock"
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --listen "$SERVE_SOCK" --workers 2 --cache-dir "$SWEEP_TMP/serve-cache" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.1; done
[[ -S "$SERVE_SOCK" ]] || { echo "noc-serve did not come up"; exit 1; }
cat > "$SWEEP_TMP/serve_batch.jsonl" <<'JSONL'
{"op":"run","id":"s1","spec":{"backend":"HybridTdmVc4","mesh":4,"traffic":{"pattern":"UR","rate":0.05},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":11}}
{"op":"run","id":"s2","spec":{"backend":"HybridTdmVc4","mesh":4,"traffic":{"pattern":"UR","rate":0.10},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":12}}
{"op":"run","id":"s3","spec":{"backend":"PacketVc4","mesh":4,"traffic":{"pattern":"TR","rate":0.08},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":13}}
JSONL
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" < "$SWEEP_TMP/serve_batch.jsonl" | sort > "$SWEEP_TMP/serve_pass1.jsonl"
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" < "$SWEEP_TMP/serve_batch.jsonl" | sort > "$SWEEP_TMP/serve_pass2.jsonl"
echo '{"op":"shutdown"}' | cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" > /dev/null
wait "$SERVE_PID"
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
def raw_envelope(line):
    # Slice the raw bytes rather than comparing parsed JSON: the cache
    # contract is *byte* identity of the replayed envelope.
    return line[line.index('"envelope":') + len('"envelope":'):].rstrip().rstrip("}")

l1 = open(f"{tmp}/serve_pass1.jsonl").readlines()
l2 = open(f"{tmp}/serve_pass2.jsonl").readlines()
assert len(l1) == len(l2) == 3, (len(l1), len(l2))
for a, b in zip(l1, l2):
    ja, jb = json.loads(a), json.loads(b)
    assert ja["kind"] == jb["kind"] == "result", (ja["kind"], jb["kind"])
    assert ja["id"] == jb["id"], (ja["id"], jb["id"])
    assert ja["cache"] == "miss", f'first pass must simulate, got {ja["cache"]}'
    assert jb["cache"] == "hit", f'second pass must hit the cache, got {jb["cache"]}'
    assert raw_envelope(a) == raw_envelope(b), f'cache hit for {ja["id"]} not byte-identical'
print("serve smoke ok: 3 misses then 3 byte-identical hits")
PY

echo "== trace capture -> replay (closed loop, sweep-thread invariant) =="
cat > "$SWEEP_TMP/capture.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 41 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/capture.json" --json "$SWEEP_TMP/cap_out.json" \
    --trace-export "$SWEEP_TMP/run.trace" > /dev/null
[[ -s "$SWEEP_TMP/run.trace" ]] || { echo "trace export wrote nothing"; exit 1; }
# Replay the captured trace against the whole mesh-4 sweep (every spec's
# traffic is replaced by the trace): twice serially for determinism, and
# once with 4 sweep threads for thread invariance.
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_a.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_b.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_t4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/replay_a.json" "$SWEEP_TMP/replay_b.json"
cmp "$SWEEP_TMP/replay_a.json" "$SWEEP_TMP/replay_t4.json"
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
env = json.load(open(f"{tmp}/replay_a.json"))
for spec in env["scenario"]:
    t = spec["traffic"]
    assert t["mode"] == "trace" and len(t["sha256"]) == 64, t
    assert "path" not in t, "trace path leaked into the envelope"
assert all(p["result"]["stats"]["packets_delivered"] > 0 for p in env["data"])
print("trace replay ok: deterministic, thread-invariant, content-addressed echo")
PY

echo "== reactive vs profiled TDM circuit plan (A/B smoke) =="
cargo run --release -p noc-bench --bin ablation_profiled_circuits "${OFFLINE[@]}" -- \
    --quick | tee "$SWEEP_TMP/profiled_ab.txt"
grep -q "TR traffic" "$SWEEP_TMP/profiled_ab.txt"
grep -q "latency profiled" "$SWEEP_TMP/profiled_ab.txt"
echo "profiled-circuits A/B ran (measured point in results/network_step_speedup.txt)"

echo "CI OK"
