"""Continuous attestation: periodic runs on the simulation clock.

A deployed verifier does not attest once — it sweeps the device on a
period.  The monitor schedules attestation runs on the discrete-event
clock, charges each run its full protocol duration (a run occupies the
device: the DynPart is being reconfigured), records the history, and
reports *detection latency*: the time between a tamper landing in the
configuration memory and the first rejecting run.

The paper's numbers put a floor under the period: one run takes 28.5 s
on the lab network, so sub-minute monitoring of an XC6VLX240T keeps the
link saturated — the trade-off experiment E17 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.prover import SachaProver
from repro.core.swarm import fold_failure
from repro.core.verifier import SachaVerifier
from repro.errors import ProtocolError
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)


@dataclass(frozen=True)
class MonitorSample:
    """One periodic attestation run."""

    started_ns: float
    finished_ns: float
    accepted: bool
    mismatched_frames: tuple
    #: "accept" | "reject" | "inconclusive" — an inconclusive run (the
    #: attestation machinery itself failed) is not a detection.
    verdict: str = ""
    failure_detail: str = ""

    def __post_init__(self) -> None:
        if not self.verdict:
            object.__setattr__(
                self, "verdict", "accept" if self.accepted else "reject"
            )

    @property
    def duration_ns(self) -> float:
        return self.finished_ns - self.started_ns


@dataclass
class MonitorHistory:
    """The monitor's run log plus detection bookkeeping."""

    samples: List[MonitorSample] = field(default_factory=list)
    tamper_time_ns: Optional[float] = None
    detection_time_ns: Optional[float] = None

    @property
    def runs(self) -> int:
        return len(self.samples)

    @property
    def rejections(self) -> int:
        return sum(1 for sample in self.samples if sample.verdict == "reject")

    @property
    def inconclusive_runs(self) -> int:
        return sum(
            1 for sample in self.samples if sample.verdict == "inconclusive"
        )

    @property
    def detection_latency_ns(self) -> Optional[float]:
        """Tamper-to-rejection latency, if both happened."""
        if self.tamper_time_ns is None or self.detection_time_ns is None:
            return None
        return self.detection_time_ns - self.tamper_time_ns


class AttestationMonitor:
    """Periodic attestation of one prover on a simulator clock.

    ``period_ns`` is start-to-start; a period shorter than the protocol
    duration is rejected (the link cannot run two attestations of one
    device concurrently — the DynPart is being rewritten).
    """

    def __init__(
        self,
        simulator: Simulator,
        prover: SachaProver,
        verifier: SachaVerifier,
        period_ns: float,
        rng: DeterministicRng,
        options: Optional[SessionOptions] = None,
        stop_on_detection: bool = True,
        on_rejection: Optional[Callable[[MonitorSample], None]] = None,
    ) -> None:
        if period_ns <= 0:
            raise ProtocolError(f"monitor period must be positive, got {period_ns}")
        self._simulator = simulator
        self._prover = prover
        self._verifier = verifier
        self._period_ns = period_ns
        self._rng = rng
        self._options = options if options is not None else SessionOptions()
        self._stop_on_detection = stop_on_detection
        self._on_rejection = on_rejection
        self.history = MonitorHistory()
        self._remaining_runs = 0
        self._run_counter = 0

    def record_tamper(self) -> None:
        """Note the time of an (externally mounted) tamper for latency
        accounting."""
        self.history.tamper_time_ns = self._simulator.now_ns
        _log.info("tamper_recorded", time_ns=self.history.tamper_time_ns)

    def start(self, runs: int) -> None:
        """Schedule ``runs`` periodic attestations from now."""
        if runs <= 0:
            raise ProtocolError(f"monitor needs at least one run, got {runs}")
        self._remaining_runs = runs
        self._simulator.schedule(0.0, self._run_once, label="monitor-run")

    def _run_once(self) -> None:
        if self._remaining_runs <= 0:
            return
        self._remaining_runs -= 1
        self._run_counter += 1
        started = self._simulator.now_ns
        # One failing run must not kill the monitor: it folds into an
        # inconclusive sample and the periodic schedule stays alive.
        report = fold_failure(
            lambda: run_attestation(
                self._prover,
                self._verifier,
                self._rng.fork(f"run-{self._run_counter}"),
                self._options,
            ).report,
            stage="monitor",
            log=_log,
            event="monitor_run_failed",
            prover=self._prover,
            run=self._run_counter,
        )
        # An inconclusive run has no timing: it occupies no time on the
        # clock and never trips the period check.
        duration = report.timing.total_ns if report.timing else 0.0
        if duration >= self._period_ns:
            raise ProtocolError(
                f"monitor period {self._period_ns:.0f} ns is shorter than "
                f"one attestation ({duration:.0f} ns); the device cannot "
                "be attested back to back"
            )
        finished = started + duration
        failure = report.failure
        sample = MonitorSample(
            started_ns=started,
            finished_ns=finished,
            accepted=report.accepted,
            mismatched_frames=tuple(report.mismatched_frames),
            verdict=report.verdict.value,
            failure_detail=f"{failure.kind}: {failure.detail}" if failure else "",
        )
        self.history.samples.append(sample)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "sacha_monitor_runs_total", "Periodic attestation runs executed"
            ).inc()
            if sample.verdict == "inconclusive":
                registry.counter(
                    "sacha_monitor_inconclusive_total",
                    "Periodic attestation runs that failed to reach a verdict",
                ).inc()
            if sample.verdict == "reject":
                registry.counter(
                    "sacha_monitor_rejections_total",
                    "Periodic attestation runs that rejected the prover",
                ).inc()
        if sample.verdict == "reject":
            if self.history.detection_time_ns is None:
                self.history.detection_time_ns = finished
                latency = self.history.detection_latency_ns
                _log.warning(
                    "monitor_detection",
                    run=self._run_counter,
                    time_ns=finished,
                    detection_latency_ns=latency,
                )
                if registry.enabled and latency is not None:
                    registry.gauge(
                        "sacha_monitor_detection_latency_seconds",
                        "Tamper-to-first-rejection latency of the last detection",
                    ).set(latency / 1e9)
            if self._on_rejection is not None:
                self._on_rejection(sample)
            if self._stop_on_detection:
                self._remaining_runs = 0
                return
        if self._remaining_runs > 0:
            next_start = started + self._period_ns
            self._simulator.schedule_at(
                next_start, self._run_once, label="monitor-run"
            )
