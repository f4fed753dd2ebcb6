"""Swarm attestation: a fleet of SACHa provers under one verifier.

Section 4.2 notes that hybrid schemes aim at large-scale "swarm"
attestation of device fleets.  SACHa composes naturally: each board
attests independently, so a fleet can be swept sequentially (one
verifier, one network) or in parallel (per-device verifier instances).
The swarm report aggregates verdicts and localizes compromised devices
down to their mismatching frames.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, TypeVar, Union

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, FailureReason, Verdict
from repro.core.verifier import SachaVerifier
from repro.errors import ProtocolError, ReproError
from repro.obs import log as obs_log
from repro.obs.aggregate import merge_registries, shard_registry
from repro.obs.metrics import MetricsRegistry, get_registry, use_context_registry
from repro.obs.spans import span
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

_T = TypeVar("_T")


class _Device(Protocol):
    @property
    def device_id(self) -> str: ...


_D = TypeVar("_D", bound=_Device)


def map_sharded(
    fn: Callable[[int], _T],
    count: int,
    max_workers: int,
    registry: Optional[MetricsRegistry] = None,
) -> List[_T]:
    """Run ``fn(index)`` for ``count`` indices with registry-shard isolation.

    The pre-forked-shard pattern of the swarm sweep, reusable by any
    fan-out that must stay byte-identical to a sequential run (the fleet
    controller drives its device sweeps through this): with more than
    one worker and an enabled registry, every call runs on a thread pool
    inside a *copied* context — so ambient spans stay parents — under
    its own :func:`~repro.obs.aggregate.shard_registry`, and the shards
    merge back into ``registry`` (default: the active one) in index
    order.  Merged telemetry is therefore independent of worker count
    and completion order.  With one worker, or a disabled registry, the
    calls run without shards.  Results always return in index order.

    Callers needing per-call randomness must fork their RNGs *before*
    dispatch (one per index), never inside ``fn`` from shared state —
    :func:`sweep_devices` does exactly that.
    """
    if count <= 0:
        return []
    target = registry if registry is not None else get_registry()
    workers = min(max(max_workers, 1), count)
    if workers <= 1:
        return [fn(index) for index in range(count)]
    if not target.enabled:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(count)))
    shards = [shard_registry(index) for index in range(count)]

    def run_in_shard(index: int) -> _T:
        with use_context_registry(shards[index]):
            return fn(index)

    contexts = [contextvars.copy_context() for _ in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(
                lambda index: contexts[index].run(run_in_shard, index),
                range(count),
            )
        )
    merge_registries(shards, into=target)
    return results


def sweep_devices(
    attest: Callable[[_D, DeterministicRng], _T],
    devices: Sequence[_D],
    rng: DeterministicRng,
    max_workers: int,
    registry: Optional[MetricsRegistry] = None,
) -> List[_T]:
    """Run ``attest(device, device_rng)`` for every device, sharded.

    The one sweep dispatch of the swarm and the fleet controller: one RNG
    per ``device.device_id`` is forked from ``rng`` *before* dispatch, so
    verdicts, nonces and tags depend only on (device, sweep RNG) and
    never on scheduling; the calls then run through :func:`map_sharded`
    and return in device order.
    """
    device_rngs = [rng.fork(device.device_id) for device in devices]
    return map_sharded(
        lambda index: attest(devices[index], device_rngs[index]),
        len(devices),
        max_workers,
        registry=registry,
    )


def fold_failure(
    attempt: Callable[[], _T],
    *,
    stage: str,
    log: obs_log.StructuredLogger,
    event: str,
    prover: Optional[SachaProver] = None,
    **fields: object,
) -> Union[_T, AttestationReport]:
    """Return ``attempt()``, or fold a raised :class:`ReproError` into an
    INCONCLUSIVE report.

    The one failure fold of the swarm, fleet and monitor drivers: a run
    that raises (dead link, crashing prover, unmaterializable device)
    becomes a no-verdict report whose :class:`FailureReason` carries
    ``stage``, the exception's class name and its message, after
    ``event`` is logged on the caller's ``log`` with ``fields``.
    """
    try:
        return attempt()
    except ReproError as exc:
        if prover is not None:
            # A half-finished run leaves incremental MAC state in the
            # prover; reset it so the failure cannot bleed into the next
            # run or sweep.
            prover.abort_run()
        log.warning(event, **fields, error=str(exc))
        return AttestationReport.make_inconclusive(
            FailureReason(stage=stage, kind=type(exc).__name__, detail=str(exc))
        )


@dataclass
class SwarmMember:
    """One enrolled device of the fleet."""

    device_id: str
    prover: SachaProver
    verifier: SachaVerifier


@dataclass
class SwarmReport:
    """Aggregate verdict over the fleet."""

    results: Dict[str, AttestationReport] = field(default_factory=dict)
    sequential_ns: float = 0.0
    parallel_ns: float = 0.0

    @property
    def healthy(self) -> List[str]:
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.ACCEPT
        )

    @property
    def compromised(self) -> List[str]:
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.REJECT
        )

    @property
    def inconclusive(self) -> List[str]:
        """Members whose run failed (link down, crash) — no verdict."""
        return sorted(
            device_id
            for device_id, report in self.results.items()
            if report.verdict is Verdict.INCONCLUSIVE
        )

    @property
    def all_healthy(self) -> bool:
        return not self.compromised and not self.inconclusive

    def localize(self) -> Dict[str, List[int]]:
        """Mismatching frames per compromised device."""
        return {
            device_id: self.results[device_id].mismatched_frames
            for device_id in self.compromised
        }

    def explain(self) -> str:
        lines = [
            f"swarm of {len(self.results)}: {len(self.healthy)} healthy, "
            f"{len(self.compromised)} compromised, "
            f"{len(self.inconclusive)} inconclusive"
        ]
        for device_id in self.compromised:
            frames = self.results[device_id].mismatched_frames
            reason = (
                f"frames {frames[:5]}" if frames else "MAC invalid"
            )
            lines.append(f"  - {device_id}: {reason}")
        for device_id in self.inconclusive:
            report = self.results[device_id]
            reason = (
                report.failure.describe()
                if report.failure
                else report.failure_reason or "run did not complete"
            )
            lines.append(f"  - {device_id}: inconclusive ({reason})")
        lines.append(
            f"sweep time: {self.sequential_ns / 1e9:.3f} s sequential, "
            f"{self.parallel_ns / 1e9:.3f} s parallel"
        )
        return "\n".join(lines)


class SwarmAttestation:
    """Drives one attestation sweep over a fleet."""

    def __init__(self, members: List[SwarmMember]) -> None:
        if not members:
            raise ProtocolError("a swarm needs at least one member")
        seen = set()
        for member in members:
            if member.device_id in seen:
                raise ProtocolError(
                    f"duplicate device id {member.device_id!r} in swarm"
                )
            seen.add(member.device_id)
        self._members = list(members)

    def __len__(self) -> int:
        return len(self._members)

    def run(
        self,
        rng: DeterministicRng,
        options: Optional[SessionOptions] = None,
        on_result: Optional[Callable[[str, AttestationReport], None]] = None,
        max_workers: Optional[int] = None,
    ) -> SwarmReport:
        """Attest every member; independent nonces and readback orders.

        ``sequential_ns`` models one verifier sweeping the fleet member
        by member; ``parallel_ns`` models per-device verifiers running
        concurrently (the slowest member bounds the sweep).

        ``max_workers`` > 1 runs member attestations on a thread pool
        (default: :class:`repro.perf.ReproConfig` ``swarm_workers``)
        through :func:`sweep_devices`, so verdicts, nonces, reports and
        merged telemetry are byte-identical to the sequential sweep;
        results and ``on_result`` callbacks arrive in member order.

        A member whose run raises (dead link, crashing prover) is
        recorded with an ``inconclusive`` report (:func:`fold_failure`);
        the sweep always completes and the report covers every member.
        """
        options = options if options is not None else SessionOptions()
        if max_workers is None:
            from repro.perf import get_config

            max_workers = get_config().swarm_workers
        report = SwarmReport()
        registry = get_registry()
        durations: List[float] = []
        sweep_clock = lambda: sum(durations)  # noqa: E731 — sequential sweep time

        def attest(
            member: SwarmMember, member_rng: DeterministicRng
        ) -> AttestationReport:
            return fold_failure(
                lambda: run_attestation(
                    member.prover, member.verifier, member_rng, options
                ).report,
                stage="member",
                log=_log,
                event="swarm_member_failed",
                prover=member.prover,
                device_id=member.device_id,
            )

        with span("swarm_sweep", clock=sweep_clock, members=len(self._members)):
            # Worker shards run in copied contexts, so member spans stay
            # children of ``swarm_sweep``.
            member_reports = sweep_devices(
                attest, self._members, rng, max_workers, registry=registry
            )
            for member, member_report in zip(self._members, member_reports):
                report.results[member.device_id] = member_report
                durations.append(
                    member_report.timing.total_ns if member_report.timing else 0.0
                )
                if registry.enabled:
                    registry.counter(
                        "sacha_swarm_member_verdicts_total",
                        "Per-member attestation outcomes across sweeps",
                        labels=("device_id", "verdict"),
                    ).inc(
                        device_id=member.device_id,
                        verdict=member_report.verdict.value,
                    )
                if on_result is not None:
                    on_result(member.device_id, member_report)
        report.sequential_ns = sum(durations)
        report.parallel_ns = max(durations) if durations else 0.0
        if registry.enabled:
            registry.counter(
                "sacha_swarm_sweeps_total", "Completed fleet attestation sweeps"
            ).inc()
            members = registry.counter(
                "sacha_swarm_members_total",
                "Fleet members attested across sweeps, by verdict",
                labels=("verdict",),
            )
            if report.healthy:
                members.inc(len(report.healthy), verdict="accept")
            if report.compromised:
                members.inc(len(report.compromised), verdict="reject")
            if report.inconclusive:
                members.inc(len(report.inconclusive), verdict="inconclusive")
            sweep_gauge = registry.gauge(
                "sacha_swarm_sweep_duration_seconds",
                "Duration of the last fleet sweep, by strategy",
                labels=("strategy",),
            )
            sweep_gauge.set(report.sequential_ns / 1e9, strategy="sequential")
            sweep_gauge.set(report.parallel_ns / 1e9, strategy="parallel")
            _log.info(
                "swarm_sweep_completed",
                members=len(self._members),
                healthy=len(report.healthy),
                compromised=len(report.compromised),
                inconclusive=len(report.inconclusive),
                sequential_ns=report.sequential_ns,
            )
        return report
