"""The repository's benchmark: full-device attestation, in memory and over
the simulated network, and a lossy fleet sweep.

    python3 perfbench/run.py --workload full_inmem --seed 1 --seconds 35 --trace 0

Every sample is a fresh interpreter (``child.py``) that imports ``repro``,
builds the part's system cold, then attests one device or one sweep at a
time: closed-loop load from one process, one attestation in flight (the
fleet sweep runs its own two workers).  Samples run one after another
for about ``--seconds``; the device and sweep counts of a sample are
fixed, so a seed always produces the same inputs and the same verdicts.

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``).
``--trace 1`` runs one sample untraced and the same sample traced, checks
that both reach identical verdicts, tags and exact counts, and prints the
per-layer ledger; its span log goes to ``perfbench/out``.  Every line but
the last is for people; the last is one JSON object.  The command exits
non-zero on any failed correctness check.  ``--workload all`` runs the
three workloads in turn.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from cpus import pin_to_calmest, probe_all  # noqa: E402
from ledger import LEDGER_COUNTS, TIMED_LAYERS  # noqa: E402

ALL_CPUS = frozenset(os.sched_getaffinity(0))

WORKLOADS: Dict[str, dict] = {
    "full_inmem": {
        "part": "XC6VLX240T",
        "transport": "inmem",
        "devices": 4,
        "pin": True,
    },
    "full_net": {
        "part": "XC6VLX240T",
        "transport": "net",
        "devices": 4,
        "pin": True,
    },
    "fleet_lossy": {
        "part": "SIM-MEDIUM",
        "transport": "fleet",
        "fleet_size": 64,
        "tamper_every": 8,
        "sweeps": 4,
        "workers": 2,
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("first_verdict_s", "s"),
    ("attest_p25_s", "s"),
    ("devices_per_s", "1/s"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of a traced run, in report order.
PER_LAYER = (
    *(f"{layer}_s" for layer in TIMED_LAYERS),
    *LEDGER_COUNTS,
    "net.frames_lost",
    "net.goodput_ratio",
    "sim.session_ns",
    "sim.table4_error_pct",
    "fleet.overlap",
    "verdict.accept",
    "verdict.reject",
    "verdict.inconclusive",
    "verdict.false_accept",
    "verdict.false_reject",
    "ledger.wall_s",
    "unattributed_s",
    "trace_overhead_pct",
)

CHILD_TIMEOUT_S = 170
#: An untraced run takes samples until the next would end more than half
#: a sample past ``--seconds``, but never fewer than this.
MIN_SAMPLES = 3


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    for suffix, name in (
        ("_s", "s"),
        ("_ns", "ns"),
        ("_pct", "%"),
        ("_bytes", "bytes"),
        ("_frames", "frames"),
        ("_words", "words"),
        ("_ratio", "ratio"),
        ("overlap", "ratio"),
    ):
        if metric.endswith(suffix):
            return name
    return "count"


class SampleError(RuntimeError):
    """A sample process that crashed, hung or printed no record."""


def run_sample(name: str, seed: int, index: int, trace: bool) -> dict:
    """One fresh-interpreter sample; returns the child's record."""
    spec = WORKLOADS[name]
    config = {
        **spec,
        "workload": name,
        "seed": seed,
        "index": index,
        "trace": trace,
        "work_dir": str(OUT),
        "spans_out": str(traced_spans(name, seed)) if trace else None,
    }
    # Configuration comes from the workload alone: no REPRO_* overrides,
    # so the build is cold (no cache dir) and the defaults apply.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    # The child inherits this process's CPU affinity.  A single-threaded
    # workload runs on the calmest CPU; the fleet's workers keep them all.
    # The probe taken here opens the child's set-up time.
    config["pin"] = bool(spec.get("pin"))
    config["cpus"] = sorted(ALL_CPUS)
    config["probe_s"] = pin_to_calmest(ALL_CPUS) if config["pin"] else probe_all(ALL_CPUS)
    # CLOCK_MONOTONIC is system-wide, so the child can subtract this.
    config["spawned_at"] = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{name} sample {index} ran past {CHILD_TIMEOUT_S} s") from None
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SampleError(f"{name} sample {index} exited {done.returncode}")
    return json.loads(lines[-1])


def timed_samples(name: str, seed: int, seconds: int) -> List[dict]:
    """Samples one after another for about ``seconds``.

    A slow stretch of the host then costs samples, not run time.
    """
    started = time.monotonic()
    samples: List[dict] = []
    while True:
        samples.append(run_sample(name, seed, len(samples), trace=False))
        elapsed = time.monotonic() - started
        if len(samples) >= MIN_SAMPLES and elapsed * (1 + 0.5 / len(samples)) > seconds:
            return samples


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(name: str, samples: List[dict]) -> Dict[str, tuple]:
    """Each end-to-end metric as ``(value, sample count, how)``.

    Timings are host-speed corrected (``cpus.corrected``); the raw wall
    times are printed beside them.  Short slow stretches of the host
    still move a run's median; the run's faster quartile moves about half
    as much, so steady-state timings are lower quartiles (upper for
    rates).  ``setup_s`` is the median of the run's processes.

    A process's first device (or sweep) pays one-time warm-up that
    ``first_verdict_s`` already shows, so the steady-state figures
    ``attest_p25_s`` and ``devices_per_s`` leave it out.
    """
    attest = [t for sample in samples for t in sample["attest_corrected_s"][1:]]
    raw = [t for sample in samples for t in sample["attest_s"][1:]]
    devices = [d for sample in samples for d in sample["devices"][1:]]
    rates = [d / t for d, t in zip(devices, attest)]
    attempted = sum(sample["attempted"] for sample in samples)
    failed = sum(sample["failed"] for sample in samples)
    kind = "FleetController.attest sweep" if WORKLOADS[name]["transport"] == "fleet" else "device"
    setup = [s["setup_corrected_s"] for s in samples]
    first = [s["setup_corrected_s"] + s["attest_corrected_s"][0] for s in samples]
    first_raw = [s["setup_s"] + s["attest_s"][0] for s in samples]
    return {
        "setup_s": (statistics.median(setup), len(setup), f"median; raw {statistics.median([s['setup_s'] for s in samples]):.4f}"),
        "first_verdict_s": (
            quartiles(first)[0],
            len(first),
            f"lower quartile; median {statistics.median(first):.4f}; raw {quartiles(first_raw)[0]:.4f}",
        ),
        "attest_p25_s": (
            quartiles(attest)[0],
            len(attest),
            f"lower quartile of per-{kind} time after the first; median {statistics.median(attest):.4f}; "
            f"raw {quartiles(raw)[0]:.4f}",
        ),
        "devices_per_s": (quartiles(rates)[2], len(rates), f"upper quartile of per-{kind} rates"),
        "correct_share": (1.0 - failed / attempted, attempted, "1 - failed / attempted"),
        "peak_rss_mb": (statistics.median([s["rss_mb"] for s in samples]), len(samples), "median"),
    }


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    metrics = dict(traced["ledger"])
    metrics["sim.session_ns"] = traced["sim_ns"]
    metrics["sim.table4_error_pct"] = traced["table4_error_pct"]
    for verdict in ("accept", "reject", "inconclusive", "false_accept", "false_reject"):
        metrics[f"verdict.{verdict}"] = traced["verdicts"][verdict]
    metrics["trace_overhead_pct"] = 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0)
    return {metric: metrics[metric] for metric in PER_LAYER}


def ledger_problems(metrics: Dict[str, float]) -> List[str]:
    charged = sum(metrics[f"{layer}_s"] for layer in TIMED_LAYERS)
    total = charged + metrics["unattributed_s"]
    if not math.isclose(total, metrics["ledger.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        return [f"layer self times sum to {total:.6f} s, traced wall is {metrics['ledger.wall_s']:.6f} s"]
    return []


def print_ledger(name: str, metrics: Dict[str, float]) -> None:
    wall = metrics["ledger.wall_s"]
    print(f"# {name}: traced wall {wall:.4f} s, tracing overhead {metrics['trace_overhead_pct']:+.1f} %")
    rows = sorted(
        ((metrics[f"{layer}_s"], f"{layer}_s") for layer in TIMED_LAYERS),
        reverse=True,
    )
    for seconds, metric in [*rows, (metrics["unattributed_s"], "unattributed_s")]:
        print(f"  {metric:<24} {seconds:9.4f} s  {100 * seconds / wall:5.1f} %")
    print(f"  {'= sum':<24} {sum(s for s, _ in rows) + metrics['unattributed_s']:9.4f} s")
    for metric in PER_LAYER:
        if unit(metric) != "s" and metric != "trace_overhead_pct":
            print(f"  {metric:<24} {metrics[metric]:g} {unit(metric)}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns the result object for the last line."""
    problems: List[str] = []
    if trace:
        untraced = run_sample(name, seed, 0, trace=False)
        traced = run_sample(name, seed, 0, trace=True)
        samples = [untraced, traced]
        for key in ("digest", "verdicts", "sim_ns", "attempted", "failed"):
            if untraced[key] != traced[key]:
                problems.append(f"traced and untraced runs differ in {key}")
        metrics = per_layer(untraced, traced)
        problems += ledger_problems(metrics)
        print_ledger(name, metrics)
        print(f"  digest {traced['digest']}  spans {os.path.relpath(traced_spans(name, seed), ROOT)}")
        result_metrics = {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()}
        reported = [traced]
    else:
        samples = timed_samples(name, seed, seconds)
        figures = end_to_end(name, samples)
        print(f"# {name} seed={seed}: {len(samples)} fresh-interpreter samples")
        for metric, metric_unit in END_TO_END:
            value, n, how = figures[metric]
            print(f"  {metric:<16} {value:12.6f} {metric_unit:<6} n={n:<4} {how}")
        for index, sample in enumerate(samples):
            print(f"  sample {index}: digest {sample['digest']}")
        result_metrics = {
            metric: {"value": figures[metric][0], "unit": metric_unit}
            for metric, metric_unit in END_TO_END
        }
        reported = samples
    for sample in samples:
        problems += sample["unexpected"]
    attempted = sum(sample["attempted"] for sample in reported)
    failed = sum(sample["failed"] for sample in reported)
    pinned = sum(sample["pinned"] for sample in reported)
    if pinned:
        print(
            f"  {pinned} false accept(s) are the pinned tamper defect: the tampered bit "
            "is masked on this part, so the verifier cannot see it"
        )
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def traced_spans(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}.spans.jsonl"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Compile once up front, as an installed package is: import time in
    # setup_s is then the same on the first run as on every other.
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": figure
                for name, r in results.items()
                for metric, figure in r["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
