"""Background maintenance: mapping drift signals to corrective actions.

The closing layer of the monitoring subsystem.  A
:class:`MaintenanceScheduler` owns a detector battery
(:mod:`repro.monitor.drift`) and a worker thread (the same shape as
:class:`repro.engine.service.ValuationService`'s workers) that wakes on
an interval — or immediately, when the backend's mutation path trips
its drift check — runs the detectors, plans *one* corrective action,
and executes it under the engine's exclusive lock:

=================== ==================================================
signal action       executed as
=================== ==================================================
``refit``/``retune`` :meth:`LSHNeighborBackend.retune` — fresh
                    contrast estimate from the telemetry query
                    reservoir, Section 6.1 re-selection, rebuild
                    (which also compacts)
``compact``         :meth:`LSHNeighborBackend.compact` — tombstone
                    scrub, bit-identical results
=================== ==================================================

Because a retune rebuilds (and a rebuild compacts), the planner
collapses the signal set to the strongest applicable action instead of
running them all.  Execution goes through
:meth:`~repro.engine.ValuationEngine.run_exclusive` when an engine is
attached, so concurrent ``valuate`` requests never observe a
half-swapped index and stale cache entries are pre-invalidated the
moment the backend's result semantics change.

Attaching a scheduler also *replaces the warned-refit escape hatch*:
it installs itself as the backend's ``on_drift`` hook, so a mutation
that leaves the tuned band no longer emits a ``RuntimeWarning`` and
pays an inline refit — it keeps absorbing in place and the scheduler
re-tunes in the background.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..engine.backends import LSHNeighborBackend, NeighborBackend
from ..exceptions import ParameterError
from ..stats import component_stats
from .drift import SEVERITIES, DriftDetector, DriftSignal, default_detectors
from .telemetry import TelemetryHub

if TYPE_CHECKING:  # imported lazily: engine.engine imports this package
    from ..engine.engine import ValuationEngine
    from ..engine.sharding import ShardRouter

__all__ = ["MaintenanceEvent", "MaintenanceScheduler", "attach_monitoring"]

#: Actions the planner knows, strongest first.  ``retune`` subsumes
#: ``refit`` (it *is* a refit, with a fresh contrast estimate) and both
#: subsume ``compact`` (a rebuild starts from scratch, tombstone-free).
ACTION_ORDER = ("retune", "refit", "compact")


@dataclass(frozen=True)
class MaintenanceEvent:
    """One executed (or failed) maintenance action, for the audit log."""

    action: str
    signals: tuple[DriftSignal, ...]
    seconds: float
    ok: bool
    error: Optional[str] = None
    details: dict = field(default_factory=dict)


@dataclass
class _MaintUnit:
    """One maintained engine/backend pair (a shard, or the whole deployment).

    ``label`` is ``None`` for the classic single-engine scheduler and
    the shard label under a router; ``view`` is the (possibly labeled)
    hub the unit's streams live under.
    """

    label: Optional[str]
    engine: Optional["ValuationEngine"]
    backend: NeighborBackend
    detectors: list
    view: object  # TelemetryHub or LabeledHub


class MaintenanceScheduler:
    """Detect-plan-act loop keeping a live deployment tuned.

    Parameters
    ----------
    engine:
        The served :class:`~repro.engine.ValuationEngine`; maintenance
        then runs under its exclusive lock and its backend is the
        maintained index.  Omit to maintain a bare ``backend``.
    backend:
        The maintained backend when no engine is given.
    hub:
        Telemetry hub; a private one is created when omitted.  If the
        engine/backend has no hub attached yet, this one is attached,
        so ``MaintenanceScheduler(engine=engine)`` alone instruments a
        deployment end to end.
    detectors:
        Detector battery; defaults to
        :func:`~repro.monitor.drift.default_detectors` for the
        backend.
    interval:
        Seconds between background cycles once :meth:`start` ed.  The
        loop also wakes immediately when the backend defers a drifted
        mutation to it.
    history:
        Audit-log length (:attr:`log`).
    min_retune_interval:
        Debounce: minimum seconds between two executed re-tunes.  A
        re-tune planned sooner is *deferred*, not dropped — the intent
        stays pending and executes once the spacing has elapsed — so a
        pathological workload (e.g. traffic oscillating around a drift
        threshold) cannot make the scheduler rebuild the index every
        cycle.  ``0`` (default) keeps the historical immediate
        behavior.  Compactions are never debounced: they are
        result-preserving and cheap.
    contrast_hysteresis:
        Hysteresis factor (``>= 1``) on the contrast-drift threshold,
        forwarded to the default
        :class:`~repro.monitor.drift.ContrastDriftDetector` battery:
        after the detector fires once, the effective trip level is
        raised to ``rel_tol * contrast_hysteresis`` until the measured
        drift falls back below ``rel_tol`` — a workload hovering right
        at the threshold fires once, not every cycle.  ``1.0``
        (default) disables the band.  Ignored when an explicit
        ``detectors`` battery is supplied.

    alerts:
        Optional :class:`~repro.monitor.alerts.AlertManager`.  When
        attached, every fired :class:`DriftSignal` and every executed
        (or failed) maintenance action lands there as an event, so the
        operator's alert feed narrates what the loop did and why.
    slo:
        Optional :class:`~repro.monitor.slo.SLOTracker`.  When
        attached, the fleet planner breaks severity ties by each
        shard's current short-window burn rate — among equally drifted
        shards, the one spending its error budget fastest is repaired
        first.

    Use as a context manager (starts/stops the thread), drive manually
    with :meth:`run_once`, or :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        engine: Optional[ValuationEngine] = None,
        backend: Optional[NeighborBackend] = None,
        hub: Optional[TelemetryHub] = None,
        detectors: Optional[Sequence[DriftDetector]] = None,
        interval: float = 60.0,
        history: int = 256,
        min_retune_interval: float = 0.0,
        contrast_hysteresis: float = 1.0,
        router: Optional["ShardRouter"] = None,
        alerts=None,
        slo=None,
    ) -> None:
        if router is not None and (engine is not None or backend is not None):
            raise ParameterError(
                "pass either a router or an engine/backend, not both"
            )
        if router is not None and detectors is not None:
            raise ParameterError(
                "an explicit detector battery cannot be split across "
                "shards; omit `detectors` when maintaining a router"
            )
        if router is None and engine is None and backend is None:
            raise ParameterError(
                "a MaintenanceScheduler needs an engine, backend, or router "
                "to maintain"
            )
        if interval <= 0:
            raise ParameterError(f"interval must be positive, got {interval}")
        if min_retune_interval < 0:
            raise ParameterError(
                f"min_retune_interval must be non-negative, got "
                f"{min_retune_interval}"
            )
        if contrast_hysteresis < 1.0:
            raise ParameterError(
                f"contrast_hysteresis must be >= 1, got {contrast_hysteresis}"
            )
        self.router = router
        self.alerts = alerts
        self.slo = slo
        self.min_retune_interval = float(min_retune_interval)
        self.contrast_hysteresis = float(contrast_hysteresis)
        # one hub end to end — and it must be the hub the components
        # already publish into, or the stream-based detectors would
        # watch an empty private hub and monitoring would be silently
        # inert.  Precedence: an explicit `hub`, then whatever is
        # already attached, then a fresh one.
        if router is not None:
            self.engine = None
            self.backend = None
            if hub is None:
                hub = router.telemetry
            self.hub = hub if hub is not None else TelemetryHub()
            if router.telemetry is not self.hub:
                router.attach_telemetry(self.hub)
            self._units: list[_MaintUnit] = []
            for shard in router.shards:
                view = self.hub.labeled(shard.label)
                self._units.append(
                    _MaintUnit(
                        label=shard.label,
                        engine=shard.engine,
                        backend=shard.engine.backend,
                        detectors=list(
                            default_detectors(
                                shard.engine.backend,
                                view,
                                k=shard.engine.k,
                                contrast_hysteresis=self.contrast_hysteresis,
                            )
                        ),
                        view=view,
                    )
                )
            self.detectors = [d for u in self._units for d in u.detectors]
        else:
            self.engine = engine
            self.backend = backend if backend is not None else engine.backend
            if hub is None:
                hub = engine.telemetry if engine is not None else None
            if hub is None:
                hub = self.backend.telemetry
            self.hub = hub if hub is not None else TelemetryHub()
            if engine is not None:
                if engine.telemetry is not self.hub:
                    engine.attach_telemetry(self.hub)
            elif self.backend.telemetry is not self.hub:
                self.backend.telemetry = self.hub
            if detectors is None:
                k = engine.k if engine is not None else None
                detectors = default_detectors(
                    self.backend,
                    self.hub,
                    k=k,
                    contrast_hysteresis=self.contrast_hysteresis,
                )
            self.detectors = list(detectors)
            self._units = [
                _MaintUnit(
                    label=None,
                    engine=self.engine,
                    backend=self.backend,
                    detectors=self.detectors,
                    view=self.hub,
                )
            ]
        self.interval = float(interval)
        self.log: deque[MaintenanceEvent] = deque(maxlen=history)
        #: notified after every append to :attr:`log`
        self._logged = threading.Condition()
        self.last_signals: list[DriftSignal] = []
        self._pending: set[str] = set()
        #: deferred actions of labeled (shard) units, keyed by label
        self._shard_pending: dict[str, set[str]] = {}
        self._unit_signals: dict[Optional[str], list[DriftSignal]] = {}
        self._pending_lock = threading.Lock()
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self._cycles = 0
        self._last_retune_monotonic: float | None = None
        self._debounced = 0
        # silence the warned-refit escape hatch: drifted mutations are
        # now this scheduler's problem (satellite of the monitor PR)
        self._install_hook()

    def _install_hook(self) -> None:
        for unit in self._units:
            if isinstance(unit.backend, LSHNeighborBackend):
                unit.backend.on_drift = self._defer_refit

    def _uninstall_hook(self) -> None:
        for unit in self._units:
            if getattr(unit.backend, "on_drift", None) == self._defer_refit:
                unit.backend.on_drift = None

    # ------------------------------------------------------------------
    def _unit_for_backend(self, backend: NeighborBackend) -> _MaintUnit:
        for unit in self._units:
            if unit.backend is backend:
                return unit
        return self._units[0]

    def _defer_refit(self, backend: NeighborBackend) -> bool:
        """Backend drift hook: schedule a silent re-tune, wake the loop.

        Under a router the deferral is tagged with the owning shard's
        label so the planner re-tunes that shard, not shard 0.
        """
        unit = self._unit_for_backend(backend)
        with self._pending_lock:
            if unit.label is None:
                self._pending.add("refit")
            else:
                self._shard_pending.setdefault(unit.label, set()).add("refit")
        self.hub.count("maintenance.deferred_refits")
        self._wake.set()
        return True

    def _exclusive(self, fn: Callable, unit: Optional[_MaintUnit] = None):
        engine = unit.engine if unit is not None else self.engine
        if engine is not None:
            return engine.run_exclusive(fn)
        return fn()

    # ------------------------------------------------------------------
    def check(self) -> list[DriftSignal]:
        """Run every detector once; returns (and records) the signals.

        Under a router the detectors run per shard; each firing counts
        both into the shard's labeled view (``shard<i>.drift.{kind}``)
        and the fleet-wide ``drift.{kind}`` counter.  The flat
        :attr:`last_signals` list spans every unit.
        """
        signals: list[DriftSignal] = []
        self._unit_signals = {}
        for unit in self._units:
            unit_signals: list[DriftSignal] = []
            for detector in unit.detectors:
                unit_signals.extend(detector.check())
            for signal in unit_signals:
                unit.view.count(f"drift.{signal.kind}")
                if unit.label is not None:
                    self.hub.count(f"drift.{signal.kind}")
            self._unit_signals[unit.label] = unit_signals
            signals.extend(unit_signals)
        self.last_signals = signals
        if self.alerts is not None:
            for signal in signals:
                try:
                    self.alerts.observe_signal(signal)
                except Exception:  # noqa: BLE001 - the alert feed is
                    # best-effort; maintenance must keep cycling
                    self.hub.count("maintenance.alert_errors")
        return signals

    def plan(self, signals: Sequence[DriftSignal]) -> Optional[str]:
        """Collapse signals (plus deferred refits) to one action."""
        with self._pending_lock:
            wanted = set(self._pending)
            self._pending.clear()
        wanted.update(s.action for s in signals if s.action != "none")
        for action in ACTION_ORDER:
            if action in wanted:
                # refit and retune both execute as a retune: the whole
                # point of the subsystem is that a refit forced by size
                # drift should refresh the contrast estimate too
                return "retune" if action in ("refit", "retune") else action
        return None

    def _plan_fleet(
        self,
    ) -> tuple[Optional[_MaintUnit], Optional[str], list[DriftSignal]]:
        """Pick the worst-drifted unit and its action (one per cycle).

        Worst-drift-first: units are ranked by the highest severity
        among their actionable signals (``critical`` > ``warn`` >
        ``info``; a pending deferred refit counts as ``warn``), ties
        broken by the stronger action (``retune`` > ``compact``), then
        by unit order.  Exactly one unit acts per cycle — maintenance
        is serialized so at most one shard is under its exclusive lock
        at a time and the fleet keeps serving.
        """
        severity_rank = {name: i for i, name in enumerate(SEVERITIES)}
        best: tuple[int, float, int, int] | None = None
        chosen: tuple[_MaintUnit, str, list[DriftSignal]] | None = None
        with self._pending_lock:
            shard_pending = {
                label: set(actions)
                for label, actions in self._shard_pending.items()
            }
            legacy_pending = set(self._pending)
            self._shard_pending.clear()
            self._pending.clear()
        for order, unit in enumerate(self._units):
            signals = self._unit_signals.get(unit.label, [])
            actionable = [s for s in signals if s.action != "none"]
            wanted = {s.action for s in actionable}
            if unit.label is None:
                wanted |= legacy_pending
            else:
                wanted |= shard_pending.get(unit.label, set())
            action = None
            for candidate in ACTION_ORDER:
                if candidate in wanted:
                    action = (
                        "retune"
                        if candidate in ("refit", "retune")
                        else candidate
                    )
                    break
            if action is None:
                continue
            severity = max(
                [severity_rank.get(s.severity, 0) for s in actionable],
                # a deferred refit arrives without a signal: rank it
                # between a fired info and a fired warn signal
                default=severity_rank["warn"],
            )
            score = (
                severity,
                # worst-burn-first among equally severe units: the
                # shard spending its error budget fastest (per the
                # attached SLO tracker) is repaired first
                self._unit_burn(unit),
                len(ACTION_ORDER) - ACTION_ORDER.index(
                    "retune" if action == "retune" else action
                ),
                -order,
            )
            if best is None or score > best:
                best = score
                chosen = (unit, action, actionable)
        if chosen is None:
            return None, None, []
        return chosen

    def _unit_burn(self, unit: _MaintUnit) -> float:
        """The unit's current worst short-window burn rate (0 without SLOs).

        Labeled (shard) units match SLOs whose stream lives under
        their label prefix (``shard0.engine.request_seconds`` …); the
        unlabeled single-engine unit matches every tracked SLO.
        """
        if self.slo is None:
            return 0.0
        try:
            return float(self.slo.worst_burn(prefix=unit.label or ""))
        except Exception:  # noqa: BLE001 - a tracker bug must not
            # stall planning; burn then simply stops influencing order
            self.hub.count("maintenance.slo_errors")
            return 0.0

    def _debounce_retune(self, unit: Optional[_MaintUnit] = None) -> bool:
        """Whether a planned re-tune must wait for the minimum spacing.

        When debounced, the intent is re-queued as a pending refit (for
        the requesting unit) so a later cycle — past the fleet-wide
        spacing — still acts on it: deferral, not loss.
        """
        if self.min_retune_interval <= 0 or self._last_retune_monotonic is None:
            return False
        elapsed = time.monotonic() - self._last_retune_monotonic
        if elapsed >= self.min_retune_interval:
            return False
        with self._pending_lock:
            if unit is None or unit.label is None:
                self._pending.add("refit")
            else:
                self._shard_pending.setdefault(unit.label, set()).add("refit")
        self._debounced += 1
        self.hub.count("maintenance.debounced_retunes")
        return True

    def run_once(self) -> list[MaintenanceEvent]:
        """One synchronous detect-plan-act cycle; returns what ran.

        Each cycle also routes the latest component snapshots into the
        hub via :meth:`~repro.monitor.telemetry.TelemetryHub.consume`
        — the engine's (whose counters carry the ``weighted_path_*``
        execution-path tallies) and the scheduler's own — so the hub's
        export surfaces describe the whole deployment, not just the
        raw streams.  Drift-signal firings land as ``drift.{kind}``
        counters inside :meth:`check`.
        """
        self._cycles += 1
        self._publish_snapshots()
        self.check()
        unit, action, unit_signals = self._plan_fleet()
        if unit is None or action is None:
            return []
        if action == "retune" and self._debounce_retune(unit):
            # compaction is result-preserving and exempt from the
            # debounce — a cycle whose re-tune is deferred must not
            # also swallow a requested compact (the retune would have
            # subsumed it; without it, tombstones keep accumulating)
            if not any(s.action == "compact" for s in unit_signals):
                return []
            action = "compact"
        event = self._execute(action, tuple(unit_signals), unit)
        if event.ok and action == "retune":
            self._last_retune_monotonic = time.monotonic()
        with self._logged:
            self.log.append(event)
            self._logged.notify_all()
        if self.alerts is not None:
            try:
                labels = {"seconds": f"{event.seconds:.6f}"}
                if unit.label is not None:
                    labels["shard"] = unit.label
                self.alerts.record_event(
                    f"maintenance.{event.action}",
                    message=(
                        f"{event.action} ok in {event.seconds * 1e3:.1f} ms"
                        if event.ok
                        else f"{event.action} FAILED: {event.error}"
                    ),
                    severity="info" if event.ok else "warn",
                    **labels,
                )
            except Exception:  # noqa: BLE001 - see check(): best-effort
                self.hub.count("maintenance.alert_errors")
        return [event]

    def _publish_snapshots(self) -> None:
        """Consume the stack's unified-schema snapshots into the hub."""
        if self.router is not None:
            sources = [self.router]
        elif self.engine is not None:
            sources = [self.engine]
        else:
            sources = [self.backend]
        sources.append(self)
        for source in sources:
            try:
                self.hub.consume(source.stats())
            except Exception:  # noqa: BLE001 - a stats() bug must not
                # starve maintenance; the error counter is the signal
                self.hub.count("maintenance.snapshot_errors")

    def _execute(
        self,
        action: str,
        signals: tuple[DriftSignal, ...],
        unit: Optional[_MaintUnit] = None,
    ) -> MaintenanceEvent:
        if unit is None:
            unit = self._units[0]
        backend = unit.backend
        start = time.perf_counter()
        details: dict = {}
        if unit.label is not None:
            details["shard"] = unit.label
        try:
            if action == "retune":
                if isinstance(backend, LSHNeighborBackend):
                    # the query reservoir the *unit's* streams feed —
                    # under a router that is the shard's labeled view
                    sample = unit.view.reservoir("queries")
                    queries = sample if sample.shape[0] else None
                    params = self._exclusive(
                        lambda: backend.retune(queries=queries), unit
                    )
                    if params is not None:
                        details.update(
                            width=params.width,
                            n_bits=params.n_bits,
                            n_tables=params.n_tables,
                        )
                else:
                    # exact backends have nothing tuned; refitting is a
                    # no-op beyond re-validating the data pointer
                    self._exclusive(lambda: None, unit)
            elif action == "compact":
                scrubbed = self._exclusive(
                    lambda: backend.compact()
                    if isinstance(backend, LSHNeighborBackend)
                    else 0,
                    unit,
                )
                details["scrubbed"] = int(scrubbed)
            else:
                raise ParameterError(f"unknown maintenance action {action!r}")
            seconds = time.perf_counter() - start
            self.hub.count(f"maintenance.{action}")
            self.hub.record("maintenance.seconds", seconds)
            return MaintenanceEvent(
                action=action,
                signals=signals,
                seconds=seconds,
                ok=True,
                details=details,
            )
        except Exception as exc:  # noqa: BLE001 - background robustness:
            # a failed action must not kill the loop; it lands in the
            # audit log and the error counter instead
            self.hub.count("maintenance.errors")
            return MaintenanceEvent(
                action=action,
                signals=signals,
                seconds=time.perf_counter() - start,
                ok=False,
                error=repr(exc),
            )

    # ------------------------------------------------------------------
    # the background thread
    def start(self) -> "MaintenanceScheduler":
        """Start the background loop (idempotent); returns ``self``."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._install_hook()  # re-arm after a previous stop()
        self._stopped.clear()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="maintenance"
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the background loop, join it, and re-arm the warnings.

        A stopped scheduler must not keep swallowing the backend's
        drift escape hatch — nothing would drain the deferrals and the
        backend would serve a mis-tuned index forever, silently — so
        the ``on_drift`` hook is uninstalled and the legacy warned
        refit applies again.  (Driving :meth:`run_once` manually
        without ever starting the thread keeps the hook installed;
        whoever calls ``run_once`` is the drain.)
        """
        self._stopped.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
        self._uninstall_hook()

    def wait_for_event(
        self, action: str, timeout: Optional[float] = None
    ) -> Optional[MaintenanceEvent]:
        """Block until :attr:`log` holds an ``action`` event; return the latest.

        A cycle makes an action's effect visible (say, a retune clears
        the backend's ``needs_refit``) before it logs the event, so
        polling the effect does not mean the event is logged yet; this
        waits on the log itself.  Returns ``None`` after ``timeout``
        seconds without one.
        """

        def latest() -> Optional[MaintenanceEvent]:
            return next((e for e in reversed(self.log) if e.action == action), None)

        with self._logged:
            return self._logged.wait_for(latest, timeout)

    def poke(self) -> None:
        """Wake the background loop for an immediate cycle."""
        self._wake.set()

    def _loop(self) -> None:
        while not self._stopped.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            if self._stopped.is_set():
                return
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - detector bugs must not
                # kill the maintenance thread; the error counter is the
                # operator's signal to look at the detector battery
                self.hub.count("maintenance.cycle_errors")

    def __enter__(self) -> "MaintenanceScheduler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Unified-schema snapshot of the maintenance loop."""
        executed: dict[str, int] = {}
        failures = 0
        total_seconds = 0.0
        for event in self.log:
            executed[event.action] = executed.get(event.action, 0) + 1
            failures += 0 if event.ok else 1
            total_seconds += event.seconds
        last = self._last_retune_monotonic
        return component_stats(
            "maintenance_scheduler",
            counters={
                "cycles": self._cycles,
                "failures": failures,
                "debounced_retunes": self._debounced,
                **{f"action_{a}": c for a, c in sorted(executed.items())},
            },
            timings={
                "total_action_seconds": total_seconds,
                "seconds_since_retune": (
                    time.monotonic() - last if last is not None else -1.0
                ),
            },
            gauges={
                "running": int(self.running),
                "n_detectors": len(self.detectors),
                "n_units": len(self._units),
                "alerts_attached": int(self.alerts is not None),
                "slo_attached": int(self.slo is not None),
                "interval": self.interval,
                "min_retune_interval": self.min_retune_interval,
                "contrast_hysteresis": self.contrast_hysteresis,
            },
        )


def attach_monitoring(
    engine: ValuationEngine,
    interval: float = 60.0,
    hub: Optional[TelemetryHub] = None,
    detectors: Optional[Sequence[DriftDetector]] = None,
    start: bool = True,
    min_retune_interval: float = 0.0,
    contrast_hysteresis: float = 1.0,
    alerts=None,
    slo=None,
) -> MaintenanceScheduler:
    """One-call instrumentation of a served engine.

    Creates (or adopts) a hub, attaches it through the engine to the
    backend and cache, builds the default detector battery, installs
    the silent-refit hook, and — by default — starts the background
    loop.  Returns the scheduler; its :attr:`~MaintenanceScheduler.hub`
    is the telemetry handle.  ``min_retune_interval``,
    ``contrast_hysteresis``, ``alerts`` and ``slo`` forward to
    :class:`MaintenanceScheduler` (re-tune debounce, contrast-threshold
    hysteresis, and the ops-plane hookups).
    """
    scheduler = MaintenanceScheduler(
        engine=engine,
        hub=hub,
        detectors=detectors,
        interval=interval,
        min_retune_interval=min_retune_interval,
        contrast_hysteresis=contrast_hysteresis,
        alerts=alerts,
        slo=slo,
    )
    if start:
        scheduler.start()
    return scheduler
