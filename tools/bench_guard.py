#!/usr/bin/env python3
"""Bench regression guard.

Compares freshly produced BENCH_*.json files against the baselines
committed at the repository root and fails (exit 1) on any regression
beyond a tolerance band.  Two kinds of checks with separate bands:

  * counters (step/iteration/abort/verdict counts) are deterministic for
    a given commit on a given libm: a drift beyond the counter band in
    EITHER direction means the engine's behaviour changed and the
    baseline was not re-recorded.  The band (default 25%) absorbs
    cross-toolchain rounding differences only.
  * wall-clock is machine-dependent, so absolute times are never
    compared; instead intra-run speedup RATIOS (batch vs seed-serial,
    sparse+bypass vs dense per ring size) are guarded against regression
    only -- getting faster passes.  The ratio band is wider (default
    40%) because even intra-run ratios shift with core count and cache
    size across runner hardware.

Usage: bench_guard.py <baseline_dir> <fresh_dir> [counter_tol] [ratio_tol]
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


FAILURES = []


def check_counter(name, base, fresh, tol):
    if base == fresh:
        return
    ref = max(abs(base), 1.0)
    drift = abs(fresh - base) / ref
    status = "FAIL" if drift > tol else "ok"
    print(f"  [{status}] {name}: baseline {base} fresh {fresh} "
          f"(drift {drift:.1%})")
    if drift > tol:
        FAILURES.append(name)


def check_ratio(name, base, fresh, tol):
    """Guard a speedup ratio against regression (smaller = worse)."""
    if fresh >= base * (1.0 - tol):
        print(f"  [ok] {name}: baseline {base:.2f}x fresh {fresh:.2f}x")
        return
    print(f"  [FAIL] {name}: baseline {base:.2f}x fresh {fresh:.2f}x "
          f"(regressed beyond {tol:.0%})")
    FAILURES.append(name)


def by_key(samples, *keys):
    return {tuple(s[k] for k in keys): s for s in samples}


def guard_parallel_speedup(base, fresh, ctol, rtol):
    check_counter("parallel_speedup.faults", base["faults"], fresh["faults"],
                  0.0)
    b = by_key(base["samples"], "label")
    f = by_key(fresh["samples"], "label")
    for key, bs in b.items():
        fs = f.get(key)
        if fs is None:
            print(f"  [FAIL] parallel_speedup sample {key} missing")
            FAILURES.append(f"missing:{key}")
            continue
        label = key[0]
        for c in ("early_aborts", "steps_saved", "collapsed"):
            check_counter(f"parallel_speedup.{label}.{c}", bs[c], fs[c], ctol)
        if label != "seed-serial":
            check_ratio(f"parallel_speedup.{label}.speedup_vs_seed",
                        bs["speedup_vs_seed"], fs["speedup_vs_seed"], rtol)
    # Multi-process fabric row: all absolute properties of the fresh run.
    # On a kill-free campaign the supervisor must stay invisible (< 5% of
    # the single-process wall), nothing may die, and the merged store's
    # verdicts must match the direct run exactly.
    fab = fresh.get("fabric")
    if fab is None:
        if "fabric" in base:
            print("  [FAIL] parallel_speedup.fabric section missing")
            FAILURES.append("parallel_speedup.fabric-missing")
    else:
        overhead = fab.get("supervision_overhead")
        if not isinstance(overhead, (int, float)) or overhead >= 0.05:
            print(f"  [FAIL] parallel_speedup.fabric.supervision_overhead "
                  f"{overhead} breaches the 5% pin")
            FAILURES.append("parallel_speedup.fabric.supervision_overhead")
        else:
            print(f"  [ok] parallel_speedup.fabric.supervision_overhead "
                  f"{overhead:.4%} (< 5%)")
        if fab.get("deaths", 1) != 0:
            print(f"  [FAIL] parallel_speedup.fabric.deaths "
                  f"{fab.get('deaths')} on a kill-free run")
            FAILURES.append("parallel_speedup.fabric.deaths")
        else:
            print("  [ok] parallel_speedup.fabric.deaths 0")
        if not fab.get("verdicts_identical_fabric", False):
            print("  [FAIL] parallel_speedup.fabric."
                  "verdicts_identical_fabric is false")
            FAILURES.append("parallel_speedup.fabric.verdicts_identical")
        else:
            print("  [ok] parallel_speedup.fabric.verdicts_identical_fabric")
    # Observability overhead row: the traced-OFF cost model must stay
    # under the 2% acceptance pin, and tracing must never change a
    # verdict.  Both are absolute properties of the fresh run, not
    # baseline-relative drift checks.
    obs = fresh.get("obs")
    if obs is None:
        if "obs" in base:
            print("  [FAIL] parallel_speedup.obs section missing")
            FAILURES.append("parallel_speedup.obs-missing")
        return
    est = obs.get("traced_off_overhead_est")
    if not isinstance(est, (int, float)) or est >= 0.02:
        print(f"  [FAIL] parallel_speedup.obs.traced_off_overhead_est "
              f"{est} breaches the 2% pin")
        FAILURES.append("parallel_speedup.obs.traced_off_overhead")
    else:
        print(f"  [ok] parallel_speedup.obs.traced_off_overhead_est "
              f"{est:.4%} (< 2%)")
    if not obs.get("verdicts_identical_traced", False):
        print("  [FAIL] parallel_speedup.obs.verdicts_identical_traced "
              "is false")
        FAILURES.append("parallel_speedup.obs.verdicts_identical_traced")
    else:
        print("  [ok] parallel_speedup.obs.verdicts_identical_traced")


def guard_adaptive_tran(base, fresh, ctol, rtol):
    del rtol  # no wall ratios in this file; counters only
    b = by_key(base["tran"], "label")
    f = by_key(fresh["tran"], "label")
    for key, bs in b.items():
        fs = f.get(key)
        if fs is None:
            print(f"  [FAIL] adaptive_tran sample {key} missing")
            FAILURES.append(f"missing:{key}")
            continue
        label = key[0]
        for c in ("steps_integrated", "steps_interpolated", "steps_saved",
                  "detected"):
            check_counter(f"adaptive_tran.{label}.{c}", bs[c], fs[c], ctol)
    for key, bs in by_key(base["ac"]["samples"], "label").items():
        fs = by_key(fresh["ac"]["samples"], "label").get(key)
        if fs is None:
            print(f"  [FAIL] adaptive_tran ac sample {key} missing")
            FAILURES.append(f"missing:{key}")
            continue
        for c in ("freq_points_saved", "early_aborts", "detected"):
            check_counter(f"adaptive_tran.{key[0]}.{c}", bs[c], fs[c], ctol)


def guard_kernel_scaling(base, fresh, ctol, rtol):
    # --quick smoke runs a subset of the committed full baseline's rows;
    # only the rows present in the fresh run are compared then.
    quick = fresh.get("mode") == "quick"
    b = by_key(base["samples"], "label", "config")
    f = by_key(fresh["samples"], "label", "config")
    for key, bs in b.items():
        fs = f.get(key)
        if fs is None:
            if quick:
                continue
            print(f"  [FAIL] kernel_scaling sample {key} missing")
            FAILURES.append(f"missing:{key}")
            continue
        label, config = key
        for c in ("unknowns", "nr_iterations", "lu_factorizations"):
            check_counter(f"kernel_scaling.{label}.{config}.{c}", bs[c],
                          fs[c], ctol)
    common = sorted({k[0] for k in b if k in f})
    # The dense/sparse asymptotic claim: amd+bypass vs dense per size.
    for label in common:
        try:
            br = b[(label, "dense")]["wall_s"] / \
                max(b[(label, "sparse-amd+bypass")]["wall_s"], 1e-9)
            fr = f[(label, "dense")]["wall_s"] / \
                max(f[(label, "sparse-amd+bypass")]["wall_s"], 1e-9)
        except KeyError:
            continue
        check_ratio(f"kernel_scaling.{label}.amd_bypass_vs_dense", br, fr,
                    rtol)
    # Campaign-shared symbolic kernel section.
    cb, cf = base.get("campaign"), fresh.get("campaign")
    if cb and not cf:
        print("  [FAIL] kernel_scaling.campaign section missing")
        FAILURES.append("kernel_scaling.campaign-missing")
    elif cb and cf:
        for c in ("vco_faults", "vco_scheduled", "vco_cache_hits",
                  "vco_detected_cache_on", "vco_detected_cache_off",
                  "ota_device_stamp_skips"):
            check_counter(f"kernel_scaling.campaign.{c}", cb[c], cf[c], ctol)
        if cf["vco_cache_hit_rate"] < 0.9:
            print(f"  [FAIL] kernel_scaling.campaign.vco_cache_hit_rate "
                  f"{cf['vco_cache_hit_rate']:.2f} below 0.9")
            FAILURES.append("kernel_scaling.campaign.hit_rate")
        for flag in ("vco_default_verdicts_identical",
                     "ota_cache_verdicts_identical",
                     "ota_device_bypass_verdicts_identical"):
            if not cf.get(flag, False):
                print(f"  [FAIL] kernel_scaling.campaign.{flag} is false")
                FAILURES.append(f"kernel_scaling.campaign.{flag}")


def guard_incremental_campaign(base, fresh, ctol, rtol):
    # Per-class provenance counters of the cross-revision engine: a drift
    # means the revision perturber, the extraction or the diff changed.
    for c in ("baseline_faults", "revision_faults", "carried", "resimulated",
              "added", "removed", "probability_changed", "detected"):
        check_counter(f"incremental_campaign.{c}", base[c], fresh[c], ctol)
    if not fresh.get("verdicts_identical", False):
        print("  [FAIL] incremental_campaign.verdicts_identical is false")
        FAILURES.append("incremental_campaign.verdicts_identical")
    # The headline claim: warm incremental run vs cold full re-run.
    check_ratio("incremental_campaign.speedup_vs_cold",
                base["speedup_vs_cold"], fresh["speedup_vs_cold"], rtol)


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    base_dir, fresh_dir = sys.argv[1], sys.argv[2]
    ctol = float(sys.argv[3]) if len(sys.argv) > 3 else 0.25
    rtol = float(sys.argv[4]) if len(sys.argv) > 4 else 0.40

    guards = {
        "BENCH_parallel_speedup.json": guard_parallel_speedup,
        "BENCH_adaptive_tran.json": guard_adaptive_tran,
        "BENCH_kernel_scaling.json": guard_kernel_scaling,
        "BENCH_incremental_campaign.json": guard_incremental_campaign,
    }
    for name, guard in guards.items():
        try:
            base = load(f"{base_dir}/{name}")
        except FileNotFoundError:
            print(f"[skip] no committed baseline for {name}")
            continue
        try:
            fresh = load(f"{fresh_dir}/{name}")
        except FileNotFoundError:
            print(f"[FAIL] fresh run missing {name}")
            FAILURES.append(f"missing-file:{name}")
            continue
        print(f"== {name} (counters {ctol:.0%}, ratios {rtol:.0%}) ==")
        guard(base, fresh, ctol, rtol)

    if FAILURES:
        print(f"\nbench guard: {len(FAILURES)} regression(s):")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("\nbench guard: all within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
