#!/usr/bin/env python3
"""GDISim benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run builds the simulator and the benchmark driver from source into
.bench_build/perfbench (Release), runs one workload for --seconds, and
prints one JSON result as the last line of standard output. --out appends
the stamped result to a JSON-lines file; --compare diffs two such files.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def run_quiet(cmd, what):
    """Runs a build step; on failure shows its output tail and exits 2."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log("\n".join(proc.stdout.splitlines()[-40:]))
        log(f"perfbench: {what} failed (exit {proc.returncode})")
        sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", str(cores())], "build")
    return BUILD_DIR


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator sources and this benchmark (path + bytes)."""
    h = hashlib.sha256()
    files = [p for base in (ROOT / "src", BENCH_DIR) for p in base.rglob("*") if p.is_file()]
    files.append(ROOT / "tools" / "gdisim_run.cc")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def describe(bin_dir):
    out = subprocess.run([str(bin_dir / "gdisim_perfbench"), "--describe"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out)


def run_driver(bin_dir, workload, seed, seconds, trace, short=False):
    """Runs one workload; returns (result, info) where info holds the stamp,
    fingerprints and count lines printed before the result."""
    cmd = [str(bin_dir / "gdisim_perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if short:
        cmd.append("--short")
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tag = "-short" if short else ""
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}{tag}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        log(f"perfbench: driver failed (exit {proc.returncode})")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log(f"perfbench: malformed result line: {lines[-1]}")
        sys.exit(1)
    info = {"fingerprints": {}}
    for ln in lines[:-1]:
        key, _, rest = ln.partition(" ")
        if key == "stamp":
            info["stamp"] = json.loads(rest)
        elif key in ("counts-untraced", "counts-traced"):
            info[key] = json.loads(rest)
        elif key == "fingerprint":
            _, variant, fp = rest.split()
            info["fingerprints"][variant] = fp
    return result, info


# --------------------------------------------------------------------------
# Self-test


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {}
    for tier in ("end_to_end", "per_layer"):
        for m in spec[tier]:
            declared[m["name"]] = (m["unit"], m["better"], tier)
    return spec, declared


def gdisim_run_fingerprint(bin_dir, wl, hours):
    cmd = [str(bin_dir / "gdisim_run"), "--scenario", wl["scenario"], "--hours", repr(hours),
           "--threads", "0", "--quiet", "--fingerprint"]
    if wl["scenario"] == "validation":
        cmd += ["--experiment", str(wl["experiment"])]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return [ln.split()[1] for ln in out.splitlines() if ln.startswith("fingerprint:")][0]


def self_test():
    bin_dir = build()
    desc = describe(bin_dir)
    spec, declared = declared_metrics()
    problems = []

    def check(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    # The driver's metric table and BENCHMARK.json agree on name, unit, direction.
    table = {m["name"]: (m["unit"], m["better"], m["tier"]) for m in desc["metrics"]}
    check(table == declared, "metric table matches BENCHMARK.json (name, unit, direction, tier)")
    check([w["name"] for w in spec["workloads"]] == [w["name"] for w in desc["workloads"]],
          "workload list matches BENCHMARK.json")
    exact = {m["name"] for m in desc["metrics"] if m["exact"]}

    seed = desc["default_seed"]
    for wl in desc["workloads"]:
        name = wl["name"]
        runs = [run_driver(bin_dir, name, seed, 0.5, trace, short=True) for trace in (0, 1, 1)]
        for (result, info), trace in zip(runs, (0, 1, 1)):
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: correct, {result['failed']}/{result['attempted']} failed")
            tier = "per_layer" if trace else "end_to_end"
            want = {n for n, d in declared.items() if d[2] == tier}
            got = result["metrics"]
            check(set(got) == want and all(got[n]["unit"] == declared[n][0] for n in got),
                  f"{name} trace={trace}: emits every {tier} metric with its declared unit")
        fps = [info["fingerprints"] for _, info in runs]
        check(fps[0] == fps[1] == fps[2] and fps[0],
              f"{name}: fingerprints equal across untraced and traced runs {fps[0]}")
        for _, info in runs[1:]:
            check(info["counts-untraced"] == info["counts-traced"],
                  f"{name}: state counts equal in untraced and traced units")
        a, b = (r["metrics"] for r, _ in runs[1:])
        diff = sorted(n for n in exact if a[n]["value"] != b[n]["value"])
        check(not diff, f"{name}: {len(exact)} exact counts reproduce across two runs {diff or ''}")
        if not wl["forks"]:
            ref = gdisim_run_fingerprint(bin_dir, wl, wl["short_hours"])
            check(ref == fps[0].get(next(iter(wl["pins"]))),
                  f"{name}: short-horizon fingerprint {ref} matches gdisim_run")
            pin = next(iter(wl["pins"].values()))
            ref = gdisim_run_fingerprint(bin_dir, wl, wl["hours"])
            check(ref == pin, f"{name}: pin {pin} matches gdisim_run --hours {wl['hours']:g} ({ref})")
    log(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


# --------------------------------------------------------------------------
# Compare


def load_set(path):
    records = {}
    for ln in Path(path).read_text().splitlines():
        if ln.strip():
            rec = json.loads(ln)
            key = (rec["stamp"]["workload"], rec["stamp"]["trace"])
            records.setdefault(key, []).append(rec)
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(base_path, new_path):
    base, new = load_set(base_path), load_set(new_path)
    spec, declared = declared_metrics()
    e2e = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for wl in workloads:
        cells = []
        b_runs, n_runs = base.get((wl, 0), []), new.get((wl, 0), [])
        for name in e2e:
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = nm / bm if bm else float("nan")
            cells.append(f"{name} {ratio:.3f}x of base {bm:.6g} {declared[name][0]} "
                         f"(base IQR {100 * spread(bv):.1f}%, n={len(bv)}/{len(nv)})")
        # Exact counts from the traced runs: any difference is a real change.
        b_tr, n_tr = base.get((wl, 1), []), new.get((wl, 1), [])
        if b_tr and n_tr:
            exact = b_tr[0].get("exact", [])
            bm, nm = b_tr[0]["result"]["metrics"], n_tr[0]["result"]["metrics"]
            diff = [f"{n} {bm[n]['value']:.10g}->{nm[n]['value']:.10g}" for n in exact
                    if n in bm and n in nm and bm[n]["value"] != nm[n]["value"]]
            cells.append(f"counts: {len(diff)} of {len(exact)} differ" + (": " + ", ".join(diff) if diff else ""))
            status |= 1 if diff else 0
        print(f"{wl:20s} | " + " | ".join(cells) if cells else f"{wl:20s} | no runs in both sets")
    return status


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the stamped result to this JSON-lines file")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    bin_dir = build()
    result, info = run_driver(bin_dir, args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        exact = [m["name"] for m in describe(bin_dir)["metrics"] if m["exact"]]
        record = dict(info, result=result, exact=exact)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print("stamp " + json.dumps(info.get("stamp", {})))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
