"""Self-tests of the benchmark: layer attribution, determinism, contract.

    python3 -m pytest perfbench/test_attribution.py

They run the sample process on SIM-SMALL, so they take seconds, not the
minutes a full-device run takes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cpus  # noqa: E402
import run  # noqa: E402

#: A delay big against SIM-SMALL's per-frame work and against run-to-run
#: noise in the other layers, small against a test (about 1.4 s a run).
DELAY_S = 0.01
DELAYED = "repro.crypto.cmac:AesCmac.update"


def sample(tmp_path, trace: bool, delay: bool = False, **overrides) -> dict:
    config = {
        "workload": "full_inmem",
        "part": "SIM-SMALL",
        "transport": "inmem",
        "devices": 4,
        "seed": 7,
        "index": 0,
        "trace": trace,
        "work_dir": str(tmp_path),
        "spans_out": str(tmp_path / "spans.jsonl") if trace else None,
        "pin": False,
        "cpus": sorted(run.ALL_CPUS),
        "probe_s": cpus.REFERENCE_PROBE_S,
        **overrides,
    }
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    if delay:
        env["PERFBENCH_INJECT_DELAY"] = f"{DELAYED}={DELAY_S}"
    config["spawned_at"] = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.decode().splitlines()[-1])


def self_times(record: dict) -> dict:
    return {
        metric: value
        for metric, value in record["ledger"].items()
        if metric.endswith("_s") and metric != "ledger.wall_s"
    }


def test_injected_delay_is_charged_to_its_layer(tmp_path):
    plain = sample(tmp_path, trace=True)
    slowed = sample(tmp_path, trace=True, delay=True)
    untraced = sample(tmp_path, trace=False)
    untraced_slowed = sample(tmp_path, trace=False, delay=True)

    # In memory, the prover folds each read-back frame with one update.
    injected = DELAY_S * slowed["ledger"]["fpga.icap_readback_frames"]
    before, after = self_times(plain), self_times(slowed)
    grown = {metric: after[metric] - before[metric] for metric in before}
    assert grown["crypto.cmac_s"] >= 0.9 * injected
    others = [growth for metric, growth in grown.items() if metric != "crypto.cmac_s"]
    assert max(others) < 0.25 * injected, grown

    per_device = injected / slowed["attempted"]
    p50 = statistics.median(untraced["attest_s"])
    p50_slowed = statistics.median(untraced_slowed["attest_s"])
    assert p50_slowed - p50 >= 0.5 * per_device

    # The delay changes no verdict, tag or simulated time.
    digests = {r["digest"] for r in (plain, slowed, untraced, untraced_slowed)}
    assert len(digests) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "workload": "fleet_lossy",
            "transport": "fleet",
            "fleet_size": 8,
            "tamper_every": 4,
            "sweeps": 2,
            "workers": 2,
        },
    ],
    ids=["devices", "fleet"],
)
def test_traced_run_matches_untraced_and_ledger_adds_up(tmp_path, overrides):
    untraced = sample(tmp_path, trace=False, **overrides)
    again = sample(tmp_path, trace=False, **overrides)
    traced = sample(tmp_path, trace=True, **overrides)
    assert untraced["digest"] == again["digest"] == traced["digest"]
    assert untraced["verdicts"] == traced["verdicts"]
    assert traced["unexpected"] == [] and traced["failed"] == 0
    # SIM-SMALL leaves the tamper bit unmasked: every tamper is rejected.
    assert traced["verdicts"]["reject"] == traced["attempted"] // (
        overrides.get("tamper_every", 4)
    )

    metrics = run.per_layer(untraced, traced)
    assert run.ledger_problems(metrics) == []
    # The host-speed probes are the benchmark's own time, not a layer's.
    glue = metrics["unattributed_s"] - traced["probing_s"]
    assert glue < 0.2 * (metrics["ledger.wall_s"] - traced["probing_s"])
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ids = {span["span"] for span in spans}
    assert all(span["parent"] in ids for span in spans if span["parent"] is not None)
    if overrides:
        assert metrics["fleet.overlap"] > 1.0
        assert metrics["net.transmit_calls"] > 0 and metrics["obs.merge_s"] > 0
        devices = {span["request"] for span in spans if span["name"].endswith("_attest_device")}
        assert len(devices) == overrides["fleet_size"]


def test_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    described = json.loads((HERE / "metric_map.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(described["workloads"]) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert list(described["end_to_end"]) == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit(name)) for name in run.PER_LAYER
    ]
    assert set(described["per_layer"]) == set(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_inmem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
        capture_output=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == b""
