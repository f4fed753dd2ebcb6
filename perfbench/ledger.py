"""Per-layer wall-clock cost ledger for the benchmark's traced runs.

The ledger wraps the public functions of each ``repro`` layer from the
outside -- class attributes, and module-level functions in every
``repro`` module that binds them -- and charges elapsed wall time to the
innermost open layer span.  A layer's self time is the time charged to
it while it was innermost.

With several threads inside spans at once (the fleet sweep's worker
pool), every interval between two span events is split evenly among
the threads whose innermost span is running.  A thread parked in a
waiting span (the sweep's main thread blocked on its pool) takes no
share, and an interval in which no thread runs a layer goes to
``unattributed_s``.  Spans with no layer (the benchmark's own per-device
glue) also charge ``unattributed_s``.  So the layers' self times plus
``unattributed_s`` add up to the traced wall time exactly.

Spans of the coarse layers are kept in memory (name, start, end,
parent, request id) and written as JSON lines when the run ends; the
hot per-frame layers (codec, channel, CMAC, ICAP, ...) are charged and
counted but not kept, so a full-device run holds hundreds of spans, not
hundreds of thousands.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A count taken at a wrapped call: ``(metric, amount(args, result))``.
CountSpec = Tuple[str, Callable[[tuple, Any], int]]


@dataclass(frozen=True)
class Wrap:
    """One wrapped function: ``target`` is ``module:function`` or
    ``module:Class.method``.

    ``layer`` None means the call charges ``unattributed_s``; ``wait``
    marks a span whose thread is blocked (it takes no share of time
    while it is innermost); ``keep`` keeps the span for the JSONL dump;
    ``count`` adds to a counter at the outermost call of the layer;
    ``after`` runs ``after(ledger, args, result)`` once the call returned;
    ``request`` derives the request id (the device id) from the args;
    ``listify`` names a positional argument that may be a one-shot
    iterator, turned into a list before the call so ``count`` can read it.
    """

    layer: Optional[str]
    target: str
    keep: bool = False
    wait: bool = False
    count: Optional[CountSpec] = None
    after: Optional[Callable[["Ledger", tuple, Any], None]] = None
    request: Optional[Callable[[tuple], str]] = None
    listify: Optional[int] = None


@dataclass(frozen=True)
class Tally:
    """A count-only wrapper (no span): hot calls whose time is charged to
    the layer that made them.  Counted at the outermost call of ``metric``
    only, so a function delegating to a sibling is not counted twice."""

    metric: str
    target: str
    amount: Callable[[tuple, dict], int]


def _after_session(ledger: "Ledger", args: tuple, result: Any) -> None:
    session = args[0]
    ledger.add("net.retransmissions", session.total_retransmissions)
    ledger.add("net.attempts", result.attempts)


def _after_fault_model(ledger: "Ledger", args: tuple, result: Any) -> None:
    ledger.fault_models.append(args[0])


def _after_memo(ledger: "Ledger", args: tuple, result: Any) -> None:
    hit = bool(result[1])
    ledger.add("cache.hits", int(hit))
    ledger.add("cache.misses", int(not hit))


def _frame_bytes(args: tuple, result: Any) -> int:
    return sum(len(frame) for frame in args[1])


#: Every layer boundary the traced run instruments, by layer.
WRAPS: Tuple[Wrap, ...] = (
    Wrap("design.build", "repro.design.sacha_design:plan_sacha_system", keep=True),
    Wrap("design.build", "repro.design.sacha_design:implement_plan", keep=True),
    Wrap(
        "design.build",
        "repro.design.sacha_design:SachaSystemDesign.freeze_artifacts",
        keep=True,
    ),
    Wrap("cache.get_system", "repro.cache:ArtifactCache.get_system", keep=True),
    Wrap(
        "cache.get_system",
        "repro.cache.memo:ArtifactMemo.get_or_build",
        after=_after_memo,
    ),
    Wrap("core.provision", "repro.core.provisioning:provision_device", keep=True),
    Wrap(
        "core.provision",
        "repro.core.provisioning:materialize_device",
        keep=True,
        request=lambda args: args[1],
    ),
    Wrap(
        "fpga.load",
        "repro.fpga.bitstream:BitstreamLoader.load",
        keep=True,
        count=("fpga.load_frames", lambda args, result: result.frame_count),
    ),
    Wrap("fpga.puf", "repro.fpga.puf:enroll_device", keep=True),
    Wrap("fpga.puf", "repro.fpga.puf:PufKeySlot.derive_key", keep=True),
    Wrap(
        "crypto.sha256",
        "repro.crypto.sha256:Sha256.update",
        count=("crypto.sha256_bytes", lambda args, result: len(args[1])),
    ),
    Wrap("crypto.sha256", "repro.crypto.sha256:Sha256.digest"),
    Wrap(
        "crypto.sha256",
        "repro.crypto.sha256:sha256",
        count=("crypto.sha256_bytes", lambda args, result: len(args[0])),
    ),
    Wrap(
        "crypto.cmac",
        "repro.crypto.cmac:AesCmac.update",
        count=("crypto.cmac_bytes", lambda args, result: len(args[1])),
    ),
    Wrap(
        "crypto.cmac",
        "repro.crypto.cmac:AesCmac.update_frames",
        count=("crypto.cmac_bytes", _frame_bytes),
        listify=1,
    ),
    Wrap("crypto.cmac", "repro.crypto.cmac:AesCmac.finalize"),
    # ``Icap.iter_readback`` is a generator backed by one ``readback_range``
    # call, so its cost and frames land through that wrapper.
    Wrap(
        "fpga.icap_readback",
        "repro.fpga.icap:Icap.readback_frame",
        count=("fpga.icap_readback_frames", lambda args, result: 1),
    ),
    Wrap(
        "fpga.icap_readback",
        "repro.fpga.icap:Icap.readback_range",
        count=(
            "fpga.icap_readback_frames",
            lambda args, result: len(result) // args[0].memory.device.frame_bytes,
        ),
    ),
    Wrap(
        "fpga.icap_readback",
        "repro.fpga.icap:Icap.write_frame",
        count=("fpga.icap_write_frames", lambda args, result: 1),
    ),
    Wrap(
        "fpga.icap_readback",
        "repro.fpga.icap:Icap.write_frames",
        count=("fpga.icap_write_frames", lambda args, result: len(args[1])),
    ),
    *(
        Wrap("core.verify", f"repro.core.verifier:SachaVerifier.{name}", keep=True)
        for name in (
            "config_commands",
            "readback_plan",
            "evaluate",
            "evaluate_masked",
            "expected_mac",
            "expected_masked_mac",
        )
    ),
    *(
        Wrap("core.prover", f"repro.core.prover:SachaProver.{name}")
        for name in (
            "handle_command",
            "handle_config",
            "handle_readback",
            "handle_readback_range",
            "handle_config_batch",
            "handle_readback_batch",
            "handle_readback_masked",
            "handle_checksum",
        )
    ),
    Wrap("core.session_self", "repro.core.protocol:run_attestation", keep=True),
    Wrap(
        "core.session_self",
        "repro.core.net_session:NetworkAttestationSession.run",
        keep=True,
        after=_after_session,
    ),
    Wrap(
        "net.transmit",
        "repro.net.channel:Channel.transmit",
        count=("net.transmit_calls", lambda args, result: 1),
    ),
    Wrap("net.deliver", "repro.net.channel:Endpoint.deliver"),
    Wrap("net.arq", "repro.net.arq:ArqLink.send"),
    Wrap("net.arq", "repro.net.arq:ArqLink.send_many"),
    Wrap("net.codec", "repro.net.messages:decode_command"),
    Wrap("net.codec", "repro.net.messages:decode_response"),
    Wrap("net.codec", "repro.net.batch:pack_readback_plan"),
    Wrap("net.codec", "repro.net.batch:pack_config_commands"),
    Wrap("net.codec", "repro.net.batch:fragment_readback_data"),
    Wrap(None, "repro.net.faults:FaultModel.__init__", after=_after_fault_model),
    Wrap("sim.run_self", "repro.sim.events:Simulator.run", keep=True),
    *(
        Wrap("fleet.store", f"repro.fleet.store:FleetStore.{name}", keep=True)
        for name in (
            "enroll",
            "begin_sweep",
            "record_attestation",
            "finish_sweep",
            "select_for_attestation",
        )
    ),
    Wrap("obs.merge", "repro.obs.aggregate:merge_registries", keep=True),
    Wrap("obs.merge", "repro.obs.exporters:registry_snapshot", keep=True),
    Wrap("fleet.controller", "repro.fleet.controller:FleetController.attest", keep=True),
    # The per-device root of a sweep worker thread; private, but it is the
    # only boundary that names the device (the span's request id).
    Wrap(
        "fleet.controller",
        "repro.fleet.controller:FleetController._attest_device",
        keep=True,
        request=lambda args: args[1].device_id,
    ),
    # The sweep's main thread blocks here on its worker pool.
    Wrap(None, "repro.core.swarm:map_sharded", keep=True, wait=True),
)

#: Every wire message class's ``encode`` is a codec boundary.
CODEC_MODULE = "repro.net.messages"

TALLIES: Tuple[Tally, ...] = (
    Tally("sim.events", "repro.sim.events:Simulator.schedule", lambda a, k: 1),
    Tally("sim.events", "repro.sim.events:Simulator.schedule_at", lambda a, k: 1),
    Tally("fpga.crc_words", "repro.utils.crc:XilinxBitstreamCrc.feed", lambda a, k: 1),
    Tally(
        "fpga.crc_words",
        "repro.utils.crc:XilinxBitstreamCrc.feed_words",
        lambda a, k: len(a[2] if len(a) > 2 else k["words"]),
    ),
)

#: Layers whose self time is reported, as ``<layer>_s``.
TIMED_LAYERS: Tuple[str, ...] = (
    "py.import",
    "design.build",
    "cache.get_system",
    "core.provision",
    "fpga.load",
    "fpga.puf",
    "crypto.sha256",
    "crypto.cmac",
    "fpga.icap_readback",
    "core.verify",
    "core.prover",
    "core.session_self",
    "net.transmit",
    "net.codec",
    "net.arq",
    "net.deliver",
    "sim.run_self",
    "fleet.controller",
    "fleet.store",
    "obs.merge",
)

#: Counts the ledger takes at wrapped boundaries.
LEDGER_COUNTS: Tuple[str, ...] = (
    "cache.hits",
    "cache.misses",
    "fpga.load_frames",
    "fpga.crc_words",
    "crypto.sha256_bytes",
    "crypto.cmac_bytes",
    "fpga.icap_readback_frames",
    "fpga.icap_write_frames",
    "net.transmit_calls",
    "net.retransmissions",
    "net.attempts",
    "sim.events",
)


# A frame is a plain tuple: constructing it is on every wrapped call's path.
_LAYER, _PARENT, _REQUEST, _WAIT, _KEEP, _ID, _NAME, _START = range(8)


class Ledger:
    """Span stacks per thread, self time per layer, counts, kept spans."""

    def __init__(self, start: float, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[tuple]] = {}
        # Per thread, its innermost frame unless that frame is waiting.
        self._running: Dict[int, tuple] = {}
        self._threads: Dict[int, int] = {}
        self._thread_counts: Dict[int, Counter] = {}
        self._tally_depths: Dict[str, Dict[int, int]] = {}
        self._start = self._last = start
        self._next_id = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.unattributed_s = 0.0
        self.spans: List[dict] = []
        self.fault_models: List[Any] = []
        self.wall_s: Optional[float] = None

    # -- charging --------------------------------------------------------------

    def _charge(self, now: float) -> None:
        """Split the time since the last event among the running frames."""
        elapsed = now - self._last
        self._last = now
        running = self._running
        if not running:
            self.unattributed_s += elapsed
            return
        share = elapsed / len(running)
        for frame in running.values():
            layer = frame[_LAYER]
            if layer is None:
                self.unattributed_s += share
            else:
                self.self_s[layer] += share

    def enter(
        self,
        layer: Optional[str],
        name: str,
        keep: bool = False,
        wait: bool = False,
        request: Optional[str] = None,
    ) -> tuple:
        ident = threading.get_ident()
        self._lock.acquire()
        try:
            now = self._clock()
            self._charge(now)
            stack = self._stacks.get(ident)
            if stack is None:
                stack = self._stacks[ident] = []
                self._threads[ident] = len(self._threads)
            parent = stack[-1] if stack else None
            if request is None and parent is not None:
                request = parent[_REQUEST]
            self._next_id += 1
            frame = (layer, parent, request, wait, keep, self._next_id, name, now)
            stack.append(frame)
            if wait:
                self._running.pop(ident, None)
            else:
                self._running[ident] = frame
            return frame
        finally:
            self._lock.release()

    def leave(self, frame: tuple) -> None:
        ident = threading.get_ident()
        self._lock.acquire()
        try:
            now = self._clock()
            self._charge(now)
            stack = self._stacks[ident]
            stack.pop()
            if stack and not stack[-1][_WAIT]:
                self._running[ident] = stack[-1]
            else:
                self._running.pop(ident, None)
            if frame[_KEEP]:
                self.spans.append(self._kept(frame, now, ident))
        finally:
            self._lock.release()

    def _kept(self, frame: tuple, end: float, ident: int) -> dict:
        # A kept span's parent is its nearest kept ancestor.
        parent = frame[_PARENT]
        while parent is not None and not parent[_KEEP]:
            parent = parent[_PARENT]
        return {
            "span": frame[_ID],
            "name": frame[_NAME],
            "layer": frame[_LAYER],
            "start_s": frame[_START] - self._start,
            "end_s": end - self._start,
            "parent": parent[_ID] if parent is not None else None,
            "request": frame[_REQUEST],
            "thread": self._threads[ident],
        }

    def add(self, metric: str, amount: int) -> None:
        # Each thread counts into its own Counter (merged when read), so the
        # hot path takes no lock and loses no update.
        ident = threading.get_ident()
        counts = self._thread_counts.get(ident)
        if counts is None:
            counts = self._thread_counts[ident] = Counter()
        counts[metric] += amount

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        for counts in list(self._thread_counts.values()):
            total.update(counts)
        return total

    def close(self) -> None:
        self._lock.acquire()
        try:
            now = self._clock()
            self._charge(now)
            self.wall_s = now - self._start
        finally:
            self._lock.release()

    # -- wrapping --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: Optional[str], name: str, request: Optional[str] = None):
        """A kept span around the benchmark's own code."""
        frame = self.enter(layer, name, keep=True, request=request)
        try:
            yield
        finally:
            self.leave(frame)

    def timed(self, spec: Wrap, fn: Callable) -> Callable:
        enter, leave, add = self.enter, self.leave, self.add
        layer, keep, wait = spec.layer, spec.keep, spec.wait
        name = f"{layer}:{fn.__qualname__}"
        count, after, request = spec.count, spec.after, spec.request
        listify = spec.listify

        if count is after is request is listify is None and not (keep or wait):

            @functools.wraps(fn)
            def plain(*args, **kwargs):
                frame = enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)

            return plain

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if listify is not None and len(args) > listify:
                args = (*args[:listify], list(args[listify]), *args[listify + 1 :])
            frame = enter(
                layer, name, keep, wait, request(args) if request else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            parent = frame[_PARENT]
            if count is not None and (parent is None or parent[_LAYER] != layer):
                add(count[0], count[1](args, result))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def tallied(self, spec: Tally, fn: Callable) -> Callable:
        # Call depth per thread, shared by the metric's tallies, so only the
        # outermost call counts.
        depth = self._tally_depths.setdefault(spec.metric, {})
        metric, amount, add = spec.metric, spec.amount, self.add
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = get_ident()
            level = depth.get(ident, 0)
            if not level:
                add(metric, amount(args, kwargs))
            depth[ident] = level + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[ident] = level

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in :data:`WRAPS`, :data:`TALLIES` and the codec."""
        messages = importlib.import_module(CODEC_MODULE)
        codec = tuple(
            Wrap("net.codec", f"{CODEC_MODULE}:{cls.__name__}.encode")
            for cls in vars(messages).values()
            if isinstance(cls, type) and "encode" in vars(cls)
        )
        for spec in WRAPS + codec:
            patch(spec.target, lambda fn, spec=spec: self.timed(spec, fn))
        for tally in TALLIES:
            patch(tally.target, lambda fn, tally=tally: self.tallied(tally, fn))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Self time per layer, counts, and the ledger's own check values."""
        if self.wall_s is None:
            raise RuntimeError("close the ledger before reading its metrics")
        metrics: Dict[str, float] = {
            f"{layer}_s": self.self_s.get(layer, 0.0) for layer in TIMED_LAYERS
        }
        unknown = set(self.self_s) - set(TIMED_LAYERS)
        if unknown:
            raise RuntimeError(f"time charged to unlisted layers: {sorted(unknown)}")
        counts = self.counts
        for name in LEDGER_COUNTS:
            metrics[name] = counts.get(name, 0)
        metrics["net.frames_lost"] = sum(
            model.counters.lost + model.counters.outage_dropped
            for model in self.fault_models
        )
        transmits = metrics["net.transmit_calls"]
        metrics["net.goodput_ratio"] = (
            (transmits - metrics["net.retransmissions"]) / transmits
            if transmits
            else 1.0
        )
        sweeps = sum(
            span["end_s"] - span["start_s"]
            for span in self.spans
            if span["name"].endswith("FleetController.attest")
        )
        devices = sum(
            span["end_s"] - span["start_s"]
            for span in self.spans
            if span["name"].endswith("FleetController._attest_device")
        )
        metrics["fleet.overlap"] = devices / sweeps if sweeps else 0.0
        metrics["unattributed_s"] = self.unattributed_s
        metrics["ledger.wall_s"] = self.wall_s
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _resolve(target: str):
    module_name, _, attribute = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patch(target: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``target`` with ``make(original)``.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that binds it, because
    ``from x import f`` copies the name into the importing module.
    """
    owner, name = _resolve(target)
    original = vars(owner)[name]
    replacement = make(original)
    if isinstance(owner, type):
        setattr(owner, name, replacement)
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
