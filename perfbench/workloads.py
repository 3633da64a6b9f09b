"""The four workloads: set-up, a timed closed loop, and output checks.

Every workload class has the same shape, driven by ``run.py``:

* ``setup()`` builds the system(s) and warms whatever the timed loop
  uses (session, worker pool, app or store); the runner times it on
  several fresh instances and keeps the last one;
* ``measure(seconds, op, repeats)`` runs whole units of work until at
  least ``seconds`` have passed and at least ``repeats`` passes or
  cycles are done; every unit goes through ``op(fn, *args, **kwargs)``,
  which the traced run replaces by a span recorder;
* ``close()`` stops every process and thread the workload started;
* ``verify()`` returns the problems found in the outputs (empty when
  all are correct), running any extra checks untimed;
* ``report()`` returns the workload's end-to-end metrics by name;
* ``attempted``/``failed`` count operations, ``unit_seconds()`` is the
  mean wall time of one unit (the tracing-overhead base).

Every exploration passes ``store=False`` or a store in a fresh
directory, so a ``REPRO_STORE`` set on the host never turns
explorations into lookups.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import math
import random
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro import api
from repro.api import ExplorationOptions, Session
from repro.casestudies.booking import booking_agency_system
from repro.fol.parser import parse_query
from repro.loadgen import generate_sessions
from repro.loadgen.driver import run_closed_loop
from repro.loadgen.invariants import check_invariants, request_totals
from repro.loadgen.script import PlannedRequest, SessionScript
from repro.modelcheck import convergence
from repro.obs import MetricsRegistry
from repro.service.app import ServiceConfig, create_app
from repro.service.testing import AsgiClient
from repro.store import ResultStore
from repro.workloads import drop_action_variant

#: The fixed library query list: condition, bound (None = unbounded),
#: depth, and the pinned verdict, states, edges and witness length.
QUERIES = (
    ("Exists x. BAccepted(x)", 2, 7, "unknown", 4836, 4917, None),
    ("Exists x. BAccepted(x)", 3, 6, "unknown", 2180, 2266, None),
    ("Exists x. BAccepted(x)", None, 5, "unknown", 656, 661, None),
    ("Exists x. BDrafting(x)", 2, 7, "holds", 205, 207, 5),
    ("Exists x. BDrafting(x)", 3, 7, "holds", 216, 216, 5),
    ("Exists x. BDrafting(x)", None, 6, "holds", 226, 226, 5),
)

#: The convergence sweep and its pinned cold rows (bound, verdict,
#: configurations, edges).
SWEEP_CONDITION = "Exists x. BAccepted(x)"
SWEEP_BOUNDS = (0, 1, 2, 3)
SWEEP_DEPTH = 6
SWEEP_ROWS = (
    (0, "unknown", 1093, 1092),
    (1, "unknown", 1093, 1092),
    (2, "unknown", 1469, 1492),
    (3, "unknown", 2180, 2266),
)

#: Store-hit sweeps timed after each cold sweep.
WARM_REPEATS = 10

#: Replayed users and requests scripted per user (more than a run uses,
#: so no user loops back to the start of its script).
USERS = 2
REQUESTS_PER_USER = 1500

#: Counted requests needed before a p99 is reported (ten beyond it).
P99_MIN_SAMPLES = 1000

#: Discovered configurations per timed segment of a query.
SEGMENT_STATES = 5

#: Passes over the query list (cycles of the sweep workload) a run
#: makes at least, so each segment has a fastest repetition to keep.
MIN_REPEATS = 2

#: Within a pass a query repeats until it has run this long, so short
#: queries get as many repetitions to pick segments from as long ones.
QUERY_SECONDS = 1.0


def call(fn, *args, **kwargs):
    """The untraced ``op``: just the call."""
    return fn(*args, **kwargs)


def _rng(seed: int, workload: str) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes.
    return random.Random(f"perfbench:{workload}:{seed}")


def median(values) -> float:
    """Median of a non-empty sequence (``inf`` entries allowed)."""
    return statistics.median(values) if values else math.inf


class Segments:
    """An ``on_state`` callback cutting one exploration into timed segments.

    Discovery order is deterministic, so segment ``i`` covers the same
    configurations in every repetition of a query, and the fastest
    repetition of each segment is that work's time without the bursts of
    other tenants on a shared host (see :func:`quiet_seconds`).
    """

    def __init__(self) -> None:
        self.stamps = [perf_counter()]
        self.count = 0

    def __call__(self, configuration, depth: int) -> None:
        self.count += 1
        if self.count % SEGMENT_STATES == 0:
            self.stamps.append(perf_counter())

    def point(self, record) -> None:
        """An ``on_point`` callback: one segment per sweep point."""
        self.stamps.append(perf_counter())

    def finish(self) -> list[float]:
        """Close the last segment; returns every segment's seconds."""
        self.stamps.append(perf_counter())
        return [after - before for before, after in zip(self.stamps, self.stamps[1:])]


def quiet_seconds(repetitions: list[list[float]]) -> float:
    """Sum over segments of each segment's fastest repetition (``inf`` if none)."""
    if not repetitions:
        return math.inf
    return sum(min(times) for times in zip(*repetitions))


class LibraryBooking:
    """One caller, in-process single-shard engine, ``store=False``."""

    name = "library-booking"

    def __init__(self, seed: int, metrics=None, workdir: Path | None = None) -> None:
        self.order = list(QUERIES)
        _rng(seed, self.name).shuffle(self.order)
        self.metrics = metrics
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Per position in the query list, one entry per run of the query:
        # its latency and its segment times.
        self.latencies: list[list[float]] = [[] for _ in self.order]
        self.segments: list[list[list[float]]] = [[] for _ in self.order]

    def setup(self) -> None:
        self.system = booking_agency_system()
        self.queries = [(parse_query(text), *rest) for text, *rest in self.order]
        # Fill lazy caches with one shallow query before timing.
        self._query(self.queries[0][0], 2, 2)

    def _query(self, condition, bound, depth, on_state=None):
        return api.run_reachability(
            self.system, condition, bound=bound,
            options=ExplorationOptions(max_depth=depth), store=False, on_state=on_state,
        )

    def measure(self, seconds: float, op=call, repeats: int = MIN_REPEATS) -> None:
        started = perf_counter()
        for done in itertools.count(1):
            for position, query in enumerate(self.queries):
                spent = 0.0
                while spent < QUERY_SECONDS:
                    spent += self._timed(op, position, *query)
            if done >= repeats and perf_counter() - started >= seconds:
                return

    def _timed(
        self, op, position, condition, bound, depth, verdict, states, edges, witness
    ) -> float:
        """Run one query once; returns its latency (``inf`` when it failed)."""
        self.attempted += 1
        label = f"{condition} b={bound} depth={depth}"
        # Each query starts from the same heap, whatever ran before it.
        gc.collect()
        segments = Segments()
        begun = perf_counter()
        try:
            result = op(self._query, condition, bound, depth, segments)
        except Exception as error:  # noqa: BLE001 - a failed query is an outcome
            self.failed += 1
            self.problems.append(f"{label}: {type(error).__name__}: {error}")
            return math.inf
        self.segments[position].append(segments.finish())
        latency = perf_counter() - begun
        self.latencies[position].append(latency)
        got = (
            result.reachable.value,
            result.configurations_explored,
            result.edges_explored,
            len(result.witness) if result.witness is not None else None,
        )
        if got != (verdict, states, edges, witness):
            self.problems.append(
                f"{label}: got (verdict, states, edges, witness) {got}, "
                f"pinned {(verdict, states, edges, witness)}"
            )
        return latency

    def unit_seconds(self) -> float:
        return sum(map(sum, self.latencies)) / sum(map(len, self.latencies))

    def close(self) -> None:
        pass

    def verify(self) -> list[str]:
        return list(self.problems)

    def report(self) -> dict[str, float]:
        quiet = [quiet_seconds(repetitions) for repetitions in self.segments]
        states = sum(query[4] for query in self.order)
        for (text, bound, depth, *_), seconds, latencies in zip(self.order, quiet, self.latencies):
            print(
                f"query {text} b={bound} depth={depth}: quiet {seconds:.4f} s, "
                f"median {median(latencies):.4f} s over {len(latencies)} runs"
            )
        return {
            "states_per_s": states / sum(quiet),
            "latency_p50_s": median(quiet),
        }


class ShardedBooking(LibraryBooking):
    """The same query list through a warm two-shard, two-worker session.

    The outputs are checked against the same pinned table, so verdicts,
    states and edges are identical to ``library-booking`` by
    construction of the check.
    """

    name = "sharded-booking"
    OPTIONS = ExplorationOptions(shards=2, workers=2)

    def setup(self) -> None:
        self.system = booking_agency_system()
        self.queries = [(parse_query(text), *rest) for text, *rest in self.order]
        self.session = Session(options=self.OPTIONS, store=False, metrics=self.metrics)
        # One shallow query per graph kind forks that graph's warm workers.
        for bound in sorted({query[1] for query in self.queries}, key=str):
            self._query(self.queries[0][0], bound, 1)

    def _query(self, condition, bound, depth, on_state=None):
        return self.session.run_reachability(
            self.system, condition, bound=bound,
            options=self.OPTIONS.replace(max_depth=depth), on_state=on_state,
        )

    def close(self) -> None:
        self.session.close()


def _distinct_requests(scripts) -> list[PlannedRequest]:
    """One request per distinct (endpoint, payload), in first-seen order."""
    seen: dict[tuple, PlannedRequest] = {}
    for script in scripts:
        for planned in script.requests:
            key = (planned.endpoint, repr(sorted(planned.payload.items())))
            seen.setdefault(key, planned)
    return list(seen.values())


def _warm_requests(scripts) -> list[PlannedRequest]:
    """One shallow JSON query per warm worker context the scripts use.

    Isolated queries run on a worker forked per (system, graph), so one
    depth-1 query per case study and bound forks them all.
    """
    contexts: dict[tuple, PlannedRequest] = {}
    for planned in _distinct_requests(scripts):
        if planned.endpoint != "reachability":
            continue
        payload = {key: value for key, value in planned.payload.items() if key != "stream"}
        payload["max_depth"] = 1
        contexts.setdefault(
            (payload["case_study"], payload.get("bound")),
            PlannedRequest(
                user=0, index=0, endpoint="reachability", stream=False, think=0.0,
                payload=payload,
            ),
        )
    return list(contexts.values())


def _as_scripts(requests: list[PlannedRequest]) -> list[SessionScript]:
    """Deal requests round-robin to :data:`USERS` users, no think time."""
    scripts = []
    for user in range(USERS):
        mine = requests[user::USERS]
        scripts.append(
            SessionScript(
                user=user,
                requests=tuple(
                    PlannedRequest(
                        user=user, index=index, endpoint=planned.endpoint,
                        stream=planned.stream, think=0.0, payload=planned.payload,
                    )
                    for index, planned in enumerate(mine)
                ),
            )
        )
    return scripts


def _query_key(outcome) -> tuple:
    body = {key: value for key, value in outcome.payload.items() if key != "stream"}
    return (outcome.endpoint, repr(sorted(body.items())))


def _kind(outcome) -> tuple:
    return (outcome.stream, *_query_key(outcome))


class ServiceReplay:
    """Seeded sessions replayed closed-loop through the in-process service."""

    name = "service-replay"

    def __init__(self, seed: int, metrics=None, workdir: Path | None = None) -> None:
        self.scripts = generate_sessions(seed, users=USERS, requests_per_user=REQUESTS_PER_USER)
        self.metrics = metrics
        self.replay = None
        self.attempted = 0
        self.failed = 0
        self.client = None

    def _start(self, metrics):
        client = AsgiClient(
            create_app(ServiceConfig(store=False, max_concurrent=2 * USERS, metrics=metrics))
        )
        client.start()
        return client

    def setup(self) -> None:
        self.client = self._start(self.metrics)
        warm = run_closed_loop(
            self.client, _as_scripts(_warm_requests(self.scripts)), think_scale=0.0
        )
        if warm.count("ok") != warm.sent:
            raise RuntimeError(f"warm-up requests failed: {warm.status_counts()}")

    def measure(self, seconds: float, op=call, repeats: int = 1) -> None:
        self.replay = op(
            run_closed_loop, self.client, self.scripts, think_scale=0.0, duration=seconds
        )
        self.attempted = self.replay.sent
        self.failed = self.replay.sent - self.replay.count("ok")

    def unit_seconds(self) -> float:
        return self.replay.duration / self.replay.sent

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def verify(self) -> list[str]:
        """Audit every distinct replayed request, then match the timed replies.

        A separate app with a live registry serves each distinct request
        once; :func:`check_invariants` checks its verdicts against direct
        library calls, reconciles its request counters and probes its
        health.  Every successful timed reply must then equal the audited
        reply to the same query (JSON and SSE forms alike).
        """
        registry = MetricsRegistry()
        client = self._start(registry)
        try:
            baseline = request_totals(registry)
            audited = run_closed_loop(
                client, _as_scripts(_distinct_requests(self.scripts)), think_scale=0.0
            )
            invariants = check_invariants(
                audited, client=client, metrics=registry, baseline=baseline
            )
        finally:
            client.close()
        problems = list(invariants.problems)
        expected: dict[tuple, dict] = {}
        for outcome in audited.outcomes:
            if outcome.outcome != "ok":
                problems.append(f"audit request failed: {outcome.as_json()}")
                continue
            previous = expected.setdefault(_query_key(outcome), outcome.result)
            if previous != outcome.result:
                problems.append(f"JSON and SSE replies differ for {_query_key(outcome)}")
        for outcome in self.replay.outcomes:
            if outcome.outcome != "ok":
                continue
            want = expected.get(_query_key(outcome))
            if want is None:
                problems.append(f"timed request never audited: {_query_key(outcome)}")
            elif outcome.result != want:
                problems.append(
                    f"timed reply {outcome.result} differs from audited {want} "
                    f"for {_query_key(outcome)}"
                )
        return problems

    def report(self) -> dict[str, float]:
        replay = self.replay
        # Requests of one kind (endpoint, form and query) do the same
        # work; a kind's median latency damps the bursts of other tenants
        # of a shared host, so p50 and the exploration rate count each
        # request at its kind's median.
        kinds: dict[tuple, list[float]] = {}
        states = 0
        for outcome in replay.outcomes:
            if outcome.outcome != "ok":
                continue
            kinds.setdefault(_kind(outcome), []).append(outcome.latency)
            if outcome.endpoint == "reachability":
                states += outcome.result["configurations"]
            else:
                states += sum(row["configurations"] for row in outcome.result["rows"])
        typical = {kind: median(latencies) for kind, latencies in kinds.items()}
        counted = [outcome for outcome in replay.outcomes if outcome.counted]
        # A failed or refused request misses any latency limit.
        smoothed = [
            typical[_kind(outcome)] if outcome.outcome == "ok" else math.inf
            for outcome in counted
        ]
        latencies = sorted(
            outcome.latency if outcome.outcome == "ok" else math.inf for outcome in counted
        )
        ready = [
            outcome.time_to_ready if outcome.outcome == "ok" else math.inf
            for outcome in counted
            if outcome.stream
        ]
        # Configurations per second of request latency: the mix of cheap
        # and expensive requests a seed draws scales both sums alike.
        busy = sum(len(latencies) * typical[kind] for kind, latencies in kinds.items())
        metrics = {
            "states_per_s": states / busy if busy else 0.0,
            "throughput_rps": replay.throughput,
            "latency_p50_s": median(smoothed),
            "ttr_p50_s": median(ready),
        }
        if len(latencies) >= P99_MIN_SAMPLES:
            metrics["latency_p99_s"] = latencies[math.ceil(0.99 * len(latencies)) - 1]
        return metrics


@contextmanager
def _delta_runs():
    """Collect the delta-verification successor functions a block creates.

    :func:`repro.store.service.cached_compute` builds one
    ``DeltaSuccessors`` per delta-seeded exploration and keeps its
    ``fresh_states``/``reused_states`` counts only in its return value,
    which the sweep drops; a recording subclass keeps them visible.
    """
    module = importlib.import_module("repro.store.service")
    original = module.DeltaSuccessors
    made = []

    class Recording(original):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    module.DeltaSuccessors = Recording
    try:
        yield made
    finally:
        module.DeltaSuccessors = original


class ConvergenceStore:
    """Bound sweep against a fresh store: cold, warm repeats, one delta."""

    name = "convergence-store"

    def __init__(self, seed: int, metrics=None, workdir: Path | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cold: list[float] = []
        self.cold_segments: list[list[float]] = []
        self.warm: list[float] = []
        self.delta: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.root = None

    def setup(self) -> None:
        self.system = booking_agency_system()
        self.condition = parse_query(SWEEP_CONDITION)
        self.dropped = _rng(self.seed, self.name).choice(
            sorted(action.name for action in self.system.actions)
        )
        self.variant = drop_action_variant(self.system, self.dropped)
        self.root = Path(tempfile.mkdtemp(prefix="stores-", dir=self.workdir))
        with ResultStore(self.root / "warm-up") as store:
            store.load("0" * 64)

    def _sweep(self, op, system, store, segments=None):
        self.attempted += 1
        gc.collect()
        begun = perf_counter()
        rows = op(
            convergence.reachability_bound_sweep,
            system, self.condition, SWEEP_BOUNDS, SWEEP_DEPTH, store=store,
            on_point=None if segments is None else segments.point,
        )
        return tuple(entry.as_row() for entry in rows), perf_counter() - begun

    def measure(self, seconds: float, op=call, repeats: int = MIN_REPEATS) -> None:
        started = perf_counter()
        for cycle in itertools.count(1):
            try:
                self._cycle(op, self.root / f"cycle-{cycle}")
            except Exception as error:  # noqa: BLE001 - a failed sweep is an outcome
                self.failed += 1
                self.problems.append(f"cycle {cycle}: {type(error).__name__}: {error}")
            if cycle >= repeats and perf_counter() - started >= seconds:
                return

    def _cycle(self, op, directory: Path) -> None:
        with ResultStore(directory) as store:
            segments = Segments()
            cold, seconds = self._sweep(op, self.system, store, segments)
            self.cold.append(seconds)
            self.cold_segments.append(segments.finish())
            if cold != SWEEP_ROWS:
                self.problems.append(f"cold rows {cold} differ from pinned {SWEEP_ROWS}")
            for _ in range(WARM_REPEATS):
                warm, seconds = self._sweep(op, self.system, store)
                self.warm.append(seconds)
                if warm != cold:
                    self.problems.append(f"warm rows {warm} differ from cold rows {cold}")
            with _delta_runs() as deltas:
                changed, seconds = self._sweep(op, self.variant, store)
            self.delta.append(seconds)
        shutil.rmtree(directory)
        fresh = sum(delta.fresh_states for delta in deltas)
        cold_total = sum(row[2] for row in cold)
        if len(deltas) != len(SWEEP_BOUNDS):
            self.problems.append(
                f"delta run without {self.dropped} used a stored base on "
                f"{len(deltas)} of {len(SWEEP_BOUNDS)} bounds"
            )
        elif fresh >= cold_total:
            self.problems.append(
                f"delta run without {self.dropped} enumerated {fresh} fresh states, "
                f"not below the cold {cold_total}"
            )
        for before, after in zip(cold, changed):
            if after[1] not in ("holds", "fails", "unknown") or after[2] > before[2]:
                self.problems.append(f"delta row {after} not within cold row {before}")

    def unit_seconds(self) -> float:
        sweeps = self.cold + self.warm + self.delta
        return sum(sweeps) / len(sweeps)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def verify(self) -> list[str]:
        return list(self.problems)

    def report(self) -> dict[str, float]:
        return {
            "states_per_s": sum(row[2] for row in SWEEP_ROWS) / quiet_seconds(self.cold_segments),
            "latency_p50_s": median(self.warm),
            "sweep_cold_s": median(self.cold),
            "sweep_warm_s": median(self.warm),
            "delta_s": median(self.delta),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (LibraryBooking, ShardedBooking, ServiceReplay, ConvergenceStore)
}
