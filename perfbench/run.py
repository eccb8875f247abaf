"""fuzzymin benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload desk --seed 9100 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up builds the workload's instance from the seed and
serializes it to text, several times (``setup_s``).  The measured loop then
repeats the minimize path (``minimize_s``) and the trust path
(``verify_s``) of ``pipeline.py`` and the oracle's untimed verdict on every
reduced output, closed loop and one instance at a time, until another
iteration would overrun ``--seconds``; at least one iteration runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the calls into fuzzymin's modules run inside spans and it
reports the per-layer metrics instead.  Timings are medians over the run's
samples; the lines above it give each with its sample count and the highest
percentile that has ten samples beyond it.  Details, and with tracing the
spans, go to ``.perfbench_out/`` under the checkout.

``failed`` counts reduced outputs the oracle rejects, out of ``attempted``.
``correct`` is false when the oracle fails its self-test, when an output
minimized on a partition's first use is rejected, when an iteration's
outputs differ from the first iteration's, or when the chain stops forcing
n - 1 sweeps.  Outputs on a reused partition (gamma-sweep after its first
gamma) are rejected by the reuse defect the ROADMAP records; they count in
``failed`` without clearing ``correct``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# span name -> per-layer metric holding its self time
LAYER_TIMES = {
    "cli.parse_interpretation": "cli.parse_s",
    "model.validate": "model.validate_s",
    "bisim.to_fuzzy_graph": "bisim.encode_s",
    "bisim.auto_partition": "bisim.partition_s",
    "minimize.approximate_minimize": "minimize.reduce_s",
    "cli.write_interpretation": "cli.write_s",
    "minimize.construct_witness": "minimize.witness_s",
    "bisim.check_bisimulation": "bisim.check_s",
    "bisim.bisimilarity_degree": "bisim.pair_s",
}


def load_program():
    """Import fuzzymin from this checkout's ``src/``; exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "fuzzymin" / "__init__.py").is_file():
        sys.exit(f"error: no fuzzymin sources under {src}")
    sys.path.insert(0, str(src))
    import fuzzymin

    if Path(fuzzymin.__file__).resolve().parent != src / "fuzzymin":
        sys.exit(f"error: imported fuzzymin from {fuzzymin.__file__}, not from {src}")


def summarize(samples):
    """Sample count and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = ordered[max(1, math.ceil(p * n / 100)) - 1]
    return out


def describe(name, unit, samples):
    s = summarize(samples)
    tail = [f"{k} {v:.6g} {unit}" for k, v in s.items() if k.startswith("p")]
    tail = tail or ["no percentile (needs more than 10 samples)"]
    return (f"{name}: median {statistics.median(samples):.6g} {unit}, "
            + ", ".join(tail) + f", n={s['n']}")


def layer_metrics(tracer, builder):
    """Self time per layer (median over iterations) and the first iteration's RSS after each stage."""
    own = tracer.self_times()
    per_run = {}
    for s in tracer.spans:
        per_run.setdefault(s.run, {}).setdefault(s.name, 0.0)
        per_run[s.run][s.name] += own[s.id]
    runs = [r for r in per_run if r != "setup"]
    metrics = {}
    for span_name, metric in LAYER_TIMES.items():
        metrics[metric] = (statistics.median(per_run[r].get(span_name, 0.0) for r in runs), "s")
    builds = [own[s.id] for s in tracer.spans if s.name == builder]
    metrics["genbench.generate_s"] = (statistics.median(builds), "s")

    rss_after = {}
    for s in sorted((s for s in tracer.spans if s.run == runs[0]), key=lambda s: s.end):
        rss_after[s.name] = s.rss_mb  # the last span of each name wins
    metrics["bisim.partition_peak_rss_mb"] = (rss_after["bisim.auto_partition"], "MB")
    metrics["minimize.witness_peak_rss_mb"] = (rss_after["minimize.construct_witness"], "MB")
    return metrics, rss_after


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, str(HERE))
    from oracle import failures, self_test
    from pipeline import iteration, set_up
    from tracing import Tracer, peak_rss_mb
    from workloads import load_workloads

    workloads = load_workloads()
    if args.workload not in workloads:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    workload = workloads[args.workload]
    tracer = Tracer(bool(args.trace))
    problems = self_test()  # also warms every code path the loop takes

    text, setup_times = set_up(tracer, workload, args.seed)
    recorded = workload.recorded_n1(args.seed) or (None,) * len(workload.gammas)

    minimize_s, verify_s, reasons = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        tracer.run = f"iteration-{len(minimize_s)}"
        gc.collect()  # every iteration starts from the same collector state
        began = time.perf_counter()
        it = iteration(tracer, workload, text, lambda interp, out, i: failures(interp, out, recorded[i]))
        minimize_s.append(it["minimize_s"])
        verify_s.append(it["verify_s"])
        for gamma, reused, why in it["verdicts"]:
            attempted += 1
            if why:
                failed += 1
                if first is None:  # later iterations write the same outputs, checked below
                    reasons.append({"gamma": gamma, "reused_partition": reused, "reasons": why})
                if not reused:
                    problems.append(f"output at gamma {gamma} on a fresh partition: {why}")
        if first is None:
            first = it
            if it["sweeps"] < workload.min_sweeps:
                problems.append(f"{it['sweeps']} refinement sweeps, fewer than {workload.min_sweeps}")
        elif it["texts"] != first["texts"]:
            problems.append(f"iteration {len(minimize_s) - 1} wrote other outputs than iteration 0")
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > args.seconds:
            break
    measured = time.perf_counter() - start
    rss = peak_rss_mb()

    lines = [
        f"{workload.name} seed {args.seed} trace {args.trace}: {len(minimize_s)} iteration(s) "
        f"in {measured:.1f} s, n={first['n']}, gammas {', '.join(str(g) for g in workload.gammas)}",
        describe("setup_s", "s", setup_times),
        describe("minimize_s", "s", minimize_s),
        describe("verify_s", "s", verify_s),
        f"peak_rss_mb: {rss:.1f} MB",
        f"fail_ratio: {failed / attempted:.4g} ({failed} failed of {attempted} reduced outputs)",
    ]
    lines += [f"failure in iteration 0: {r}" for r in reasons]
    lines += [f"problem: {p}" for p in problems]
    end_to_end = {
        "minimize_s": (statistics.median(minimize_s), "s"),
        "verify_s": (statistics.median(verify_s), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    if args.trace:
        metrics, rss_after = layer_metrics(tracer, workload.builder)
        metrics.update(first["counts"])
        metrics["trace.minimize_s"] = end_to_end["minimize_s"]
    else:
        metrics = end_to_end
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, **result,
        "spread": {"setup_s": summarize(setup_times), "minimize_s": summarize(minimize_s),
                   "verify_s": summarize(verify_s)},
        "failures_in_iteration_0": reasons, "problems": problems,
    }
    if args.trace:
        details["traced_end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
        details["rss_after_stage_mb"] = rss_after

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.jsonl")

    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
