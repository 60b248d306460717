#!/usr/bin/env python3
"""Builds the A/A summary from three `seabench run` results (run-a.json, run-b.json: one seed; run-c.json: another).

Usage: python3 benchmark/baseline/summarize.py benchmark/baseline > benchmark/baseline/README.md
"""
import json, sys
base = sys.argv[1]
runs = {k: json.load(open(f"{base}/run-{k}.json")) for k in "abc"}
cat = runs["a"]["catalogue"]
bounds = {m["name"]: m["bound"] for m in cat["end_to_end"]}
better = {m["name"]: m["better"] for m in cat["end_to_end"]}
def metrics(run, workload, traced):
    for r in run["runs"]:
        if r["workload"] == workload and r["traced"] == traced:
            return {m["name"]: m["value"] for m in r["metrics"]}, r
    raise KeyError
workloads = ["dash_remote", "scan_adhoc", "cluster_mixed", "ingest_load"]
def fmt(v):
    if v == 0: return "0"
    a = abs(v)
    if a >= 1000: return f"{v:,.0f}".replace(",", " ")
    if a >= 100: return f"{v:.1f}"
    if a >= 1: return f"{v:.3f}"
    return f"{v:.4f}"
out = []
out.append("# Baselines: A/A evidence\n")
a, b, c = runs["a"], runs["b"], runs["c"]
out.append(f"Three full `seabench run` of this benchmark over the program at commit `{a['commit'][:12]}` (`git rev-parse HEAD` when they ran; uncommitted changes do not show), on the reference box "
           f"({a['cpu_model']}, `nproc` = {a['nproc']}): `run-a.json` and `run-b.json` on seed {a['seed']}, "
           f"started a few minutes apart; `run-c.json` on seed {c['seed']}. Each is the `results.json` of one run "
           "(the spans of `trace.json` are not committed: 1.6 MB per run).\n")
out.append("`worse` is how much worse run B reads than run A (positive = worse, by the metric's better "
           "direction), to hold against `bound`. Exact counts (cache hits, PRF evaluations, rows scanned, input fingerprints) must be identical between A and B; byte counts agree to a few parts per million, because the program's frames carry its measured times and trace identifiers as varints whose widths vary.\n")
out.append("## End-to-end\n")
out.append("| workload | metric | run A | run B | worse | bound | run C (seed 2) |")
out.append("|---|---|---|---|---|---|---|")
worst = 0
for w in workloads:
    ma, ra = metrics(a, w, False); mb, rb = metrics(b, w, False); mc, rc = metrics(c, w, False)
    for name in ma:
        va, vb, vc = ma[name], mb[name], mc[name]
        worse = (vb - va) / va * 100 if better[name] == "lower" else (va - vb) / va * 100
        flag = "" if worse <= bounds[name] * 100 else " **over**"
        out.append(f"| `{w}` | `{name}` | {fmt(va)} | {fmt(vb)} | {worse:+.1f}%{flag} | {bounds[name]*100:.0f}% | {fmt(vc)} |")
out.append("")
out.append("## Correctness and exact counts\n")
out.append("| workload | pass | attempted A / B / C | failed | `wire_bytes_per_op` A vs B | cache hits A = B | PRF evals A = B | input fingerprint A = B |")
out.append("|---|---|---|---|---|---|---|---|")
for w in workloads:
    for traced in (False, True):
        ma, ra = metrics(a, w, traced); mb, rb = metrics(b, w, traced); mc, rc = metrics(c, w, traced)
        if traced:
            exact = ["core.decrypt_prf_evals", "engine.rows_scanned_per_op", "dist.cache_hit_ratio"]
            same = all(ma[k] == mb[k] for k in exact)
            out.append(f"| `{w}` | traced | {ra['attempted']} / {rb['attempted']} / {rc['attempted']} | {ra['failed']+rb['failed']+rc['failed']} | — | `dist.cache_hit_ratio` {fmt(ma['dist.cache_hit_ratio'])} {'=' if ma['dist.cache_hit_ratio']==mb['dist.cache_hit_ratio'] else '≠'} | `core.decrypt_prf_evals` {fmt(ma['core.decrypt_prf_evals'])} {'=' if ma['core.decrypt_prf_evals']==mb['core.decrypt_prf_evals'] else '≠'}; rows scanned {fmt(ma['engine.rows_scanned_per_op'])} {'=' if ma['engine.rows_scanned_per_op']==mb['engine.rows_scanned_per_op'] else '≠'} | {'all exact counts equal' if same else 'DIFFER'} |")
        else:
            eq = lambda k: "=" if ra[k] == rb[k] else "≠"
            out.append(f"| `{w}` | timed | {ra['attempted']} / {rb['attempted']} / {rc['attempted']} | {ra['failed']+rb['failed']+rc['failed']} | {ma['wire_bytes_per_op']:.3f} vs {mb['wire_bytes_per_op']:.3f} | {ra['partial_cache_hits']} {eq('partial_cache_hits')} | {ra['decrypt_prf_evals']} {eq('decrypt_prf_evals')} | `{ra['input_fingerprint']}` {eq('input_fingerprint')} |")
out.append("")
out.append("## Share tables of the traced pass (% of traced operation time)\n")
out.append("| workload | run | query | core | engine | net | dist | crypto | ashe | other | target | met |")
out.append("|---|---|---|---|---|---|---|---|---|---|---|---|")
targets = {
    "dash_remote": ("engine ≤ 30 (ISSUE 11); not reachable by sizing, see the main README", lambda s: s["engine"] <= 30),
    "scan_adhoc": ("engine + core ≥ 80, net ≤ 5", lambda s: s["engine"] + s["core"] >= 80 and s["net"] <= 5),
    "cluster_mixed": ("outside shard scans (100 − engine) ≥ 50", lambda s: 100 - s["engine"] >= 50),
    "ingest_load": ("crypto + ashe ≥ 80", lambda s: s["crypto"] + s["ashe"] >= 80),
}
for w in workloads:
    for key, run in (("A", a), ("B", b), ("C", c)):
        m, r = metrics(run, w, True)
        s = {k: m.get(f"share.{k}_pct", 0.0) for k in ["query", "core", "engine", "net", "dist", "crypto", "ashe", "other"]}
        text, ok = targets[w]
        out.append(f"| `{w}` | {key} | " + " | ".join(f"{s[k]:.1f}" for k in s) + f" | {text} | {'yes' if ok(s) else 'no'} |")
out.append("")
out.append("## Trace quality and selected per-layer metrics\n")
names = ["trace.unattributed_pct", "trace.overhead_pct", "engine.server_execute_us", "engine.operator_us", "net.transport_us", "core.decrypt_us", "dist.execute_hit_us", "dist.execute_miss_us", "dist.coord_overhead_us", "obs.on_off_delta_pct"]
out.append("| workload | run | " + " | ".join(f"`{n}`" for n in names) + " |")
out.append("|---|---|" + "---|" * len(names))
for w in workloads:
    for key, run in (("A", a), ("B", b), ("C", c)):
        m, r = metrics(run, w, True)
        out.append(f"| `{w}` | {key} | " + " | ".join(fmt(m[n]) for n in names) + " |")
out.append("")
out.append("## Kernel probes (workload-independent; from the `dash_remote` traced runs)\n")
probe = ["crypto.aes_mblocks_s", "crypto.prf_mops", "crypto.ore_encrypt_kops", "crypto.det_encrypt_kops", "crypto.ore_compare_mops", "ashe.encrypt_mrows_s", "ashe.decrypt_us_per_kruns", "splashe.encode_krows_s", "encoding.idlist_encode_mids_s", "encoding.idlist_decode_mids_s", "encoding.idlist_bytes_per_id", "engine.scan_plain_mrows_s", "engine.scan_det_mrows_s", "engine.scan_ore_mrows_s", "engine.groupby_mrows_s", "engine.merge_us", "net.null_rtt_us", "net.codec_big_mb_s", "net.load_shard_mb_s", "net.connect_us", "dist.load_shards_s", "obs.snapshot_us", "core.prepare_us", "core.bind_miss_us", "core.bind_hit_us"]
units = {m["name"]: m["unit"] for m in cat["per_layer"]}
out.append("| metric | unit | run A | run B | run C |")
out.append("|---|---|---|---|---|")
ma, _ = metrics(a, "dash_remote", True); mb, _ = metrics(b, "dash_remote", True); mc, _ = metrics(c, "dash_remote", True)
for n in probe:
    out.append(f"| `{n}` | {units[n]} | {fmt(ma[n])} | {fmt(mb[n])} | {fmt(mc[n])} |")
out.append("")
print("\n".join(out))
