#!/usr/bin/env python3
"""Build and run the layout-to-coverage flow benchmark.

  python3 bench/flow/run.py [--seed N] [--out DIR] [--runs R]
      Build into build-flow/, run every workload in its own process --
      R (default 3) untraced runs, then one traced run, each for
      BENCHMARK.json's run_seconds -- check the verdict digests, print
      every metric with its unit and write BENCH_flow.json plus one
      TRACE_flow_<workload>.json per workload into DIR (default
      build-flow/).  Exits non-zero on a golden mismatch (seeds listed in
      golden.json), a traced digest that differs from the untraced one,
      a variant whose digest changed between cycles, or a broken check.

  python3 bench/flow/run.py --compare A.json B.json
      Check that two BENCH_flow.json run sets agree: every exact count
      equal and every end-to-end median within the bound BENCHMARK.json
      fixes.  A metric is reported "unresolved" when either set has fewer
      than 3 runs or its run-to-run spread is wider than its bound.

  python3 bench/flow/run.py --study FIRST_SEED [--out DIR]
      Ten untraced runs of every workload, seeds FIRST_SEED..+9: the
      spread (inter-quartile range over median) of every end-to-end
      metric, host-normalised and raw.  Writes STUDY_flow.json into DIR.

  python3 bench/flow/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload.  The last line of stdout is
      {"correct", "attempted", "failed", "metrics"}; the metrics are the
      end_to_end (--trace 0) or per_layer (--trace 1) list of
      BENCHMARK.json.  The raw (not host-normalised) times go to stderr.

Every untraced run reports setup_s as the median over SETUPS processes,
each set up cold: the measured process, then SETUPS - 1 that stop after
their set-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-flow"
WORKLOADS = ["vco_paper", "chain_screen", "chain_lift", "vco_revision"]
# Five, because a set-up is dominated by one warm-up flow, and a median of
# three moved by 25% between runs when two of them met a busy host.
SETUPS = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring bench_flow up to date; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "bench_flow"])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout + p.stderr)
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    return BUILD / "bench_flow"


def run_bench(exe, workload, seed, out, *flags):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--out", str(out),
           "--scratch", str(BUILD / "scratch"), *flags]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr)
        raise SystemExit(f"run.py: bench_flow failed on {workload} (exit {p.returncode})")
    return json.loads(lines[-1])


def measure(exe, workload, seed, out, trace, seconds):
    """One run; an untraced one takes setup_s over SETUPS cold processes."""
    res = run_bench(exe, workload, seed, out, "--trace", str(int(trace)),
                    "--seconds", str(seconds))
    if trace:
        return res
    # After the measured run, while the host is busy: a host that has been
    # idle wakes slowly, and that slows the first second of thread hand-offs.
    setups = [run_bench(exe, workload, seed, out, "--setup-only", "1")
              for _ in range(SETUPS - 1)]
    res["errors"] += [e for s in setups for e in s["errors"]]
    res["metrics"]["setup_s"]["value"] = statistics.median(
        [res["metrics"]["setup_s"]["value"]] + [s["setup_s"] for s in setups])
    res["raw"]["setup_s"]["value"] = statistics.median(
        [res["raw"]["setup_s"]["value"]] + [s["raw_setup_s"] for s in setups])
    return res


def load_json(path):
    with open(path) as f:
        return json.load(f)


def golden_digest(seed, workload):
    return load_json(HERE / "golden.json").get(str(seed), {}).get(workload)


def problems(res, seed):
    """Everything wrong with one bench_flow result (empty when correct)."""
    out = list(res["errors"])
    if not res["deterministic"]:
        out.append("verdict digest changed between flows of one variant")
    if res["failed"]:
        out.append(f"{res['failed']} of {res['attempted']} verdicts failed")
    want = golden_digest(seed, res["workload"])
    if want is not None and res["cycle_digest"] != want:
        out.append(f"cycle digest {res['cycle_digest']} != golden {want}")
    return out


def spread(values):
    """Inter-quartile range as a share of the median; None below 3 values."""
    if len(values) < 3:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def pct(x):
    return "n/a" if x is None else f"{x:.1%}"


# ---------------------------------------------------------------------------
# One measured run (the BENCHMARK.json command).

def single(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    exe = build()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    res = measure(exe, args.workload, args.seed, BUILD, args.trace, seconds)
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        raise SystemExit(f"run.py: bench_flow did not report {missing}")
    errs = problems(res, args.seed)
    for p in errs:
        log(f"{args.workload}: {p}")
    if not args.trace:
        log("raw: " + ", ".join(f"{n} {m['value']:.6g} {m['unit']}"
                                for n, m in res["raw"].items()))
    print(json.dumps({
        "correct": not errs,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n]["value"],
                        "unit": res["metrics"][n]["unit"]} for n in names},
    }))


# ---------------------------------------------------------------------------
# Full run: every workload, untraced then traced.

def git_revision():
    """HEAD, marked -dirty when the tree has local changes; 'unknown' outside git."""
    # The ceiling keeps git from reporting a repository that merely contains
    # an exported (non-git) copy of this tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    p = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=12"],
                       capture_output=True, text=True, env=env)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def summary(runs, key, names):
    """Median, spread and values over the runs of each named metric."""
    out = {}
    for name in names:
        vals = [r[key][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(vals), "spread": spread(vals),
                     "values": vals, "unit": runs[0][key][name]["unit"]}
    return out


def full(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nproc = os.cpu_count() or 1
    if nproc < 4:
        log(f"warning: nproc={nproc} < 4; the 4-thread workloads will oversubscribe")
    exe = build()
    spec = load_json(ROOT / "BENCHMARK.json")
    seconds = spec["run_seconds"]
    # error_rate reads 0 on a healthy tree, so BENCHMARK.json cannot list
    # it (its metrics must never be 0); it is reported here instead.
    e2e_names = [m["name"] for m in spec["end_to_end"]] + ["error_rate"]

    report = {"bench": "flow", "seed": args.seed, "runs": args.runs, "seconds": seconds,
              "env": {"nproc": nproc, "git_revision": git_revision()},
              "workloads": {}}
    failures = []
    for w in WORKLOADS:
        runs = [measure(exe, w, args.seed, out, False, seconds) for _ in range(args.runs)]
        traced = measure(exe, w, args.seed, out, True, seconds)
        errs = [p for r in runs + [traced] for p in problems(r, args.seed)]
        digests = {r["cycle_digest"] for r in runs + [traced]}
        if len(digests) > 1:
            errs.append(f"cycle digests differ between runs: {sorted(digests)}")
        want = golden_digest(args.seed, w)
        golden = "unchecked" if want is None else (
            "match" if runs[0]["cycle_digest"] == want else "MISMATCH")
        failures += [f"{w}: {e}" for e in errs]

        e2e = summary(runs, "metrics", e2e_names)
        raw = summary(runs, "raw", runs[0]["raw"])
        first = runs[0]
        report["env"].update(first["env"])
        # Flow counts depend on host speed; everything else here repeats.
        report["workloads"][w] = {
            "flows": [r["flows"] for r in runs], "cycle": first["cycle"],
            "threads": first["threads"],
            "tail_percentile": [r["tail_percentile"] for r in runs],
            "cycle_digest": first["cycle_digest"], "golden": golden,
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "host_ref_s": [r["host_ref_s"] for r in runs],
            "end_to_end": e2e, "raw_end_to_end": raw, "per_layer": traced["metrics"],
            "traced_flows": traced["flows"], "errors": errs,
        }

        print(f"== {w}: {first['flows']} flows x {args.runs} run(s), cycle {first['cycle']},"
              f" {first['threads']} thread(s); digest {first['cycle_digest']} ({golden})")
        for name, m in e2e.items():
            extra = f"  (p{first['tail_percentile']:.0f})" if name == "flow_tail_s" else ""
            if name in raw:
                extra += f"  raw {raw[name]['median']:.6g}"
            print(f"   {name:<28} {m['median']:>14.6g} {m['unit']:<9}"
                  f" spread {pct(m['spread'])}{extra}")
        for name, m in traced["metrics"].items():
            print(f"   {name:<28} {m['value']:>14.6g} {m['unit']}")
        for e in errs:
            print(f"   ERROR {e}")

    path = out / "BENCH_flow.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {path} and {out}/TRACE_flow_<workload>.json")
    if failures:
        raise SystemExit("run.py: FAILED\n  " + "\n  ".join(failures))


# ---------------------------------------------------------------------------
# Ten-seed spread study, host-normalised against raw.

def study(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exe = build()
    spec = load_json(ROOT / "BENCHMARK.json")
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    seeds = list(range(args.study, args.study + 10))
    report = {"bench": "flow", "seeds": seeds, "seconds": seconds,
              "env": {"nproc": os.cpu_count() or 1, "git_revision": git_revision()},
              "workloads": {}}
    failures = []
    for w in WORKLOADS:
        runs = [measure(exe, w, s, out, False, seconds) for s in seeds]
        failures += [f"{w} seed {s}: {p}" for s, r in zip(seeds, runs) for p in problems(r, s)]
        norm = summary(runs, "metrics", names)
        raw = summary(runs, "raw", runs[0]["raw"])
        report["workloads"][w] = {"end_to_end": norm, "raw_end_to_end": raw}
        print(f"== {w}: seeds {seeds[0]}-{seeds[-1]}, {seconds} s each")
        for name, m in norm.items():
            r = f"   raw {raw[name]['median']:.6g} spread {pct(raw[name]['spread'])}" \
                if name in raw else ""
            print(f"   {name:<14} {m['median']:>12.6g} {m['unit']:<5}"
                  f" spread {pct(m['spread'])}{r}")
    path = out / "STUDY_flow.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    if failures:
        raise SystemExit("run.py: FAILED\n  " + "\n  ".join(failures))


# ---------------------------------------------------------------------------
# Compare two run sets.

def compare(path_a, path_b):
    a, b = load_json(path_a), load_json(path_b)
    spec = load_json(ROOT / "BENCHMARK.json")
    bad = unresolved = 0
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(f"== {w}")
        # Flow and verdict totals follow the run length, so only the
        # per-cycle counts are compared.
        exact = {"cycle_digest": (wa["cycle_digest"], wb["cycle_digest"]),
                 "failed": (wa["failed"], wb["failed"])}
        for name, m in wa["per_layer"].items():
            if m.get("exact"):
                exact[name] = (m["value"], wb["per_layer"].get(name, {}).get("value"))
        for name, (x, y) in exact.items():
            if x != y:
                bad += 1
                print(f"   MISMATCH {name}: {x} vs {y}")
        for m in spec["end_to_end"]:
            ea, eb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            lower = m["better"] == "lower"
            worse = (eb["median"] - ea["median"]) / ea["median"]
            worse = worse if lower else -worse
            # Fewer than 3 runs in a set: the spread is unknown.
            wide = (None if ea["spread"] is None or eb["spread"] is None
                    else max(ea["spread"], eb["spread"]))
            b_wins = (max(eb["values"]) < min(ea["values"]) if lower
                      else min(eb["values"]) > max(ea["values"]))
            if wide is None or (wide > m["bound"] and not b_wins):
                verdict = "unresolved"
                unresolved += 1
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                bad += 1
            else:
                verdict = "ok"
            print(f"   {m['name']:<14} {ea['median']:>12.6g} -> {eb['median']:<12.6g}"
                  f" {m['unit']:<5} {worse:+.1%} worse (bound {m['bound']:.0%},"
                  f" spread {pct(wide)})  {verdict}")
    print(f"{bad} disagreement(s), {unresolved} unresolved")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=str(BUILD))
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--study", type=int, metavar="FIRST_SEED")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.study is not None:
        study(args)
    elif args.workload:
        single(args)
    else:
        full(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
