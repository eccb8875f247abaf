"""Print every end-to-end and per-layer metric for each workload.

    python3 perfbench/report.py [--seconds 40] [--save FILE]

For each workload in ``spec.json``, runs ``run.py`` twice in fresh processes
on the workload's default seed: untraced for the end-to-end metrics, traced
for the per-layer ones.  It prints the
end-to-end metrics with their units, the failures against the attempts,
each layer's self time with its share of the end-to-end metric it belongs
to next to the share ``spec.json`` predicts, the high-water RSS after each
stage, and the tracing overhead (traced minus untraced ``minimize_s``).
``--save`` also writes both runs' details as JSON, each figure once.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as handle:
        return json.load(handle)


def timing(median, summary, unit):
    tail = "".join(f", {k} {v:.4g} {unit}" for k, v in summary.items() if k.startswith("p"))
    return f"median {median:.4g} {unit}{tail}, n={summary['n']}"


def report(workload, seed, seconds, layers):
    plain = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    lines = [f"== {workload}, seed {seed} =="]
    metrics = plain["metrics"]
    for name in ("minimize_s", "verify_s", "setup_s"):
        unit = metrics[name]["unit"]
        lines.append(f"  {name:<12} {timing(metrics[name]['value'], plain['spread'][name], unit)}")
    lines.append(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']['value']:.1f} MB")
    lines.append(
        f"  {'fail_ratio':<12} {plain['failed'] / plain['attempted']:.4g} "
        f"({plain['failed']} failed of {plain['attempted']} reduced outputs), correct={plain['correct']}"
    )
    for problem in plain["problems"]:
        lines.append(f"  problem: {problem}")

    layer_values = traced["metrics"]
    base = traced["traced_end_to_end"]
    lines.append("  per layer (traced run); a group's share is its time over the traced end-to-end metric")
    for group in layers:
        moves = group["moves"]
        head = f"    {', '.join(group['metrics'])}"
        if moves:
            unit = metrics[moves]["unit"]
            part = sum(layer_values[m]["value"] for m in group["metrics"] if layer_values[m]["unit"] == unit)
            predicted = group["predicted_share"].get(workload)
            head += f" -> {moves}: measured {part / base[moves]:.1%}"
            head += f", predicted {predicted:.0%}" if predicted is not None else ", no prediction"
        lines.append(head)
        for name in group["metrics"]:
            lines.append(f"      {name:<30} {layer_values[name]['value']:10.4g} {layer_values[name]['unit']}")
    lines.append("  high-water RSS after each stage (first iteration): " + ", ".join(
        f"{k} {v:.0f} MB" for k, v in traced["rss_after_stage_mb"].items()))
    untraced_s = metrics["minimize_s"]["value"]
    overhead = base["minimize_s"] - untraced_s
    lines.append(
        f"  tracing overhead: traced minimize_s {base['minimize_s']:.4g} s "
        f"- untraced {untraced_s:.4g} s = {overhead:+.4g} s ({overhead / untraced_s:+.1%})"
    )
    record = {"untraced": plain, "traced": traced, "tracing_overhead_s": overhead}
    return "\n".join(lines), record


def main(argv=None) -> int:
    with open(HERE / "spec.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)

    saved = {}
    for workload, entry in spec["workloads"].items():
        text, saved[workload] = report(workload, entry["default_seed"], args.seconds, spec["layers"])
        print(text, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
