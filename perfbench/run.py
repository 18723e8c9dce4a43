"""The repository benchmark: one command per workload and seed.

Measure a workload (end-to-end metrics, tracing off)::

    python3 perfbench/run.py --workload facility_write --seed 3 --seconds 30 --trace 0

Measure the per-layer split (a separate traced run, paired with an
untraced one for the tracing overhead and the digest comparison)::

    python3 perfbench/run.py --workload openfoam_explain --seed 21 --seconds 30 --trace 1

Every sample is a fresh process (``worker.py``) run one after another
until ``--seconds`` are spent; metrics are medians over the samples.
``--out FILE`` appends the full result (quartiles, digest, per-entry
spans) as one JSON line.  Compare two such files per workload and
layer::

    python3 perfbench/run.py --compare BASE.jsonl HEAD.jsonl

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every sample ran and every check held.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Whole-command budget: the benchmark must finish within 180 s.
COMMAND_BUDGET_S = 170.0
#: Samples taken even when one sample outlasts ``--seconds``.
MIN_SAMPLES = {0: 3, 1: 1}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
}

def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class SampleError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    # Runs must not inherit process-wide simulator defaults (event
    # queue backend, sanitizer, telemetry) from the caller's shell.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_sample(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{workload} sample timed out after {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise SampleError(
            f"{workload} sample exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SampleError(f"{workload} sample printed nothing")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Fresh-process samples until ``seconds`` are spent.

    ``--trace 1`` takes (untraced, traced) pairs.  A group is started
    only if the previous one suggests it ends within the budget.
    """
    start = time.monotonic()
    deadline = start + seconds
    hard_stop = start + COMMAND_BUDGET_S
    samples: list[dict] = []
    groups = 0
    while True:
        group_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            samples.append(run_sample(
                workload, seed, traced, hard_stop - time.monotonic()
            ))
        groups += 1
        now = time.monotonic()
        took = now - group_start
        if groups >= MIN_SAMPLES[trace] and now + took > deadline:
            break
        if now + took > hard_stop:
            break
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end(samples: list[dict]) -> dict[str, dict[str, Any]]:
    series = {
        "setup_s": [s["setup_s"] for s in samples],
        "run_s": [s["run_s"] for s in samples],
        "analyze_s": [s["analyze_s"] for s in samples],
        "events_per_s": [s["events_executed"] / s["run_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "sim_makespan_s": [s["sim_makespan_s"] for s in samples],
    }
    out = {}
    for name, values in series.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "unit": END_TO_END[name], "q1": q1,
                     "q3": q3, "n": len(values)}
    return out


#: Host-measured metrics; every other metric is a count or a simulated
#: quantity and must repeat exactly for one seed.
HOST_METRICS = frozenset(set(END_TO_END) - {"sim_makespan_s"})
#: Relative change ``--compare`` reports for a host metric without a bound.
HOST_TOLERANCE = 0.10
#: Smallest change of a per-layer time ``--compare`` reports, as a share
#: of the base's summed per-layer time.
LAYER_FLOOR = 0.005


def _is_deterministic(name: str) -> bool:
    return not (name in HOST_METRICS or name.endswith("self_s")
                or name.endswith("build_s") or name.endswith("_us_per_event")
                or name.startswith("trace"))


def per_layer(samples: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    problems = []
    out: dict[str, dict[str, Any]] = {}
    for name, unit in units.items():
        if name == "trace_overhead_frac":
            value = (statistics.median(s["run_s"] for s in traced)
                     / statistics.median(s["run_s"] for s in plain) - 1.0)
            out[name] = {"value": value, "unit": unit, "n": len(traced)}
            continue
        values = [s["layers"][name] for s in traced]
        if _is_deterministic(name):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            out[name] = {"value": values[0], "unit": unit, "n": len(values)}
            continue
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                     "n": len(values)}
    return out, problems


def summarize(workload: str, seed: int, trace: int, samples: list[dict],
              metrics: dict, problems: list[str]) -> dict:
    digests = sorted({s["digest"] for s in samples})
    if len(digests) > 1:
        problems.append(
            "simulated-output digest differs between runs"
            + (" (traced vs untraced)" if trace else "") + f": {digests}"
        )
    violations = [v for s in samples for v in s["violations"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed_ops"] for s in samples) + len(violations) + len(problems)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": len(samples),
        "digest": digests[0] if len(digests) == 1 else None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "violations": violations + problems,
        "metrics": metrics,
        "raw": [
            {k: s[k] for k in ("traced", "setup_s", "run_s", "analyze_s",
                               "events_executed", "peak_rss_mb")}
            for s in samples
        ],
    }
    traced = [s for s in samples if s["traced"]]
    if traced:
        result["spans"] = traced[0]["trace"]
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['samples']} fresh-process samples")
    print(f"  digest {result['digest']}  ops_failed_frac "
          f"{result['ops_failed_frac']:.3g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6}{spread}  n={m['n']}")
    for problem in result["violations"]:
        print(f"  VIOLATION: {problem}")


# -- compare -------------------------------------------------------------


def _load(path: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            record = json.loads(line)
            if "workload" in record:
                runs[(record["workload"], record["trace"])] = record
    return runs


def compare(base_path: str, head_path: str) -> int:
    """Per workload and layer, the metrics that moved between two files."""
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(bench.read_text())["end_to_end"]}
    base, head = _load(base_path), _load(head_path)
    for key in sorted(set(base) & set(head)):
        # A per-layer time moves only if it also shifts by a visible
        # share of the traced run, so tiny layers' jitter stays quiet.
        floor = LAYER_FLOOR * sum(
            m["value"] for name, m in base[key]["metrics"].items()
            if name.endswith("self_s") or name.endswith("build_s")
        )
        workload, trace = key
        print(f"{workload} seed {base[key]['seed']} -> {head[key]['seed']} "
              f"({'per-layer, traced' if trace else 'end-to-end'})")
        groups: dict[str, list[str]] = {}
        for name, b in base[key]["metrics"].items():
            h = head[key]["metrics"].get(name)
            if h is None:
                continue
            bv, hv = b["value"], h["value"]
            ratio = hv / bv if bv else (1.0 if hv == bv else float("inf"))
            if _is_deterministic(name):
                moved = hv != bv
            else:
                moved = abs(ratio - 1.0) > bounds.get(name, HOST_TOLERANCE)
                if name.endswith("self_s") or name.endswith("build_s"):
                    moved = moved and abs(hv - bv) > floor
            if moved:
                if name in END_TO_END:
                    layer = "end_to_end"
                else:
                    layer = name.split(".")[0] if "." in name else "trace"
                groups.setdefault(layer, []).append(
                    f"    {name:<30} {bv:>14.6g} -> {hv:<14.6g} "
                    f"x{ratio:.3f} of base"
                )
        if not groups:
            print("  nothing moved")
        for layer, lines in groups.items():
            print(f"  {layer}")
            print("\n".join(lines))
    for key in sorted(set(base) ^ set(head)):
        print(f"{key[0]} trace {key[1]}: only in "
              f"{'base' if key in base else 'head'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro package under {SRC}", file=sys.stderr)
        return 2
    # The build step: byte-compile once so no sample pays it in setup_s.
    if not compileall.compile_dir(str(SRC), quiet=1) or not compileall.compile_dir(
        str(HERE), quiet=1
    ):
        print("benchmark: byte-compilation failed", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    try:
        units = per_layer_units()
        samples = collect(args.workload, seed, args.seconds, args.trace)
    except (SampleError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, problems = per_layer(samples, units)
    else:
        metrics, problems = end_to_end(samples), []
    result = summarize(args.workload, seed, args.trace, samples, metrics, problems)
    print_report(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
