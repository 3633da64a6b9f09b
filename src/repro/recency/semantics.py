"""The b-bounded execution semantics (paper, Section 5).

A b-bounded configuration is a triple ``⟨I, H, seq_no⟩``; an edge
``⟨I,H,seq_no⟩ --α:σ-->_b ⟨I',H',seq_no'⟩`` exists when

1. ``⟨I,H⟩ --α:σ--> ⟨I',H'⟩`` in the unbounded graph ``C_S``,
2. every action parameter is mapped into ``Recent_b(I, seq_no)``,
3. ``seq_no'`` extends ``seq_no`` and gives fresh values numbers larger
   than every number in ``H``,
4. the fresh values are numbered in their order of appearance in ``v⃗``.

``bound=None`` makes ``Recent`` the whole active domain, so condition 2
is vacuous; fresh values are the least unused standard names, so
``seq_no`` is a function of ``H`` and the ``None``-bounded graph is
``C_S`` itself.  Every unbounded exploration runs on it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.database.domain import FreshValueAllocator, Value
from repro.database.instance import DatabaseInstance
from repro.database.substitution import Substitution
from repro.dms.action import Action
from repro.dms.configuration import Configuration
from repro.dms.run import ExtendedRun, Run, Step
from repro.dms.semantics import is_instantiating_substitution
from repro.dms.system import DMS
from repro.errors import ExecutionError, RecencyError, SchemaError
from repro.recency.recent import recent_elements
from repro.recency.sequence import SequenceNumbering

from dataclasses import dataclass

__all__ = [
    "RecencyConfiguration",
    "RecencyStep",
    "RecencyBoundedRun",
    "initial_recency_configuration",
    "is_b_bounded_substitution",
    "apply_action_b_bounded",
    "enumerate_b_bounded_successors",
    "execute_b_bounded_labels",
    "is_b_bounded_extended_run",
    "minimal_recency_bound",
]


@dataclass(frozen=True)
class RecencyConfiguration:
    """A configuration ``⟨I, H, seq_no⟩`` of the b-bounded graph ``C_S^b``."""

    instance: DatabaseInstance
    history: frozenset
    seq_no: SequenceNumbering

    def __post_init__(self) -> None:
        missing = [value for value in self.history if value not in self.seq_no]
        if missing:
            raise RecencyError(
                f"history values without a sequence number: {sorted(map(str, missing))}"
            )

    @classmethod
    def _trusted(
        cls, instance: DatabaseInstance, history: frozenset, seq_no: SequenceNumbering
    ) -> "RecencyConfiguration":
        """A configuration from parts that already fit: ``__post_init__`` is skipped.

        For successors only, whose ``seq_no'`` extends a numbering of
        ``H`` by exactly the fresh values ``H' \\ H``.
        """
        configuration = object.__new__(cls)
        configuration.__dict__.update(instance=instance, history=history, seq_no=seq_no)
        return configuration

    @property
    def active_domain(self) -> frozenset:
        """``adom(I)``."""
        return self.instance.active_domain()

    def plain(self) -> Configuration:
        """The underlying ``⟨I, H⟩`` configuration."""
        return Configuration(instance=self.instance, history=self.history)

    def recent(self, bound: int | None) -> frozenset:
        """``Recent_b(I, seq_no)`` (the whole active domain for ``None``)."""
        return recent_elements(self.instance, self.seq_no, bound)

    def recent_ordered(self, bound: int | None) -> tuple:
        """The recent elements ordered by recency index (most recent first)."""
        return self.seq_no.order_recent_first(self.recent(bound))

    def is_canonical(self) -> bool:
        """Canonicity of Section 6.1: history is ``{e1..en}`` and ``seq_no(e_j)=j``."""
        from repro.database.domain import standard_value

        if not self.seq_no.is_canonical():
            return False
        expected = {standard_value(j) for j in range(1, len(self.history) + 1)}
        return set(self.history) == expected

    def __str__(self) -> str:
        return f"⟨{self.instance.pretty()}, |H|={len(self.history)}⟩"


@dataclass(frozen=True)
class RecencyStep:
    """One b-bounded transition with its label."""

    source: RecencyConfiguration
    action: Action
    substitution: Substitution
    target: RecencyConfiguration

    @property
    def label(self) -> tuple[str, Substitution]:
        """The ``⟨action : substitution⟩`` label."""
        return (self.action.name, self.substitution)


class RecencyBoundedRun:
    """A finite prefix of a b-bounded extended run."""

    __slots__ = ("_bound", "_initial", "_steps")

    def __init__(
        self, bound: int | None, initial: RecencyConfiguration, steps: Sequence[RecencyStep] = ()
    ) -> None:
        if bound is not None and bound < 0:
            raise RecencyError("recency bound must be non-negative")
        self._bound = bound
        self._initial = initial
        steps = tuple(steps)
        previous = initial
        for index, step in enumerate(steps):
            if step.source != previous:
                raise ExecutionError(f"step {index} does not continue the previous configuration")
            previous = step.target
        self._steps = steps

    @property
    def bound(self) -> int | None:
        """The recency bound ``b`` (``None`` for the unbounded graph)."""
        return self._bound

    @property
    def initial(self) -> RecencyConfiguration:
        """The initial configuration."""
        return self._initial

    @property
    def steps(self) -> tuple[RecencyStep, ...]:
        """The labelled steps."""
        return self._steps

    def __len__(self) -> int:
        return len(self._steps)

    def configurations(self) -> tuple[RecencyConfiguration, ...]:
        """All configurations along the prefix."""
        return (self._initial,) + tuple(step.target for step in self._steps)

    def final(self) -> RecencyConfiguration:
        """The last configuration."""
        return self._steps[-1].target if self._steps else self._initial

    def extend(self, step: RecencyStep) -> "RecencyBoundedRun":
        """Append one more step."""
        return RecencyBoundedRun(self._bound, self._initial, self._steps + (step,))

    def labels(self) -> tuple[tuple[str, Substitution], ...]:
        """The generating sequence of labels."""
        return tuple(step.label for step in self._steps)

    def instances(self) -> tuple[DatabaseInstance, ...]:
        """The generated run ``I0, I1, ..., Ik``."""
        return tuple(conf.instance for conf in self.configurations())

    def to_run(self) -> Run:
        """The generated run as a :class:`repro.dms.run.Run`."""
        return Run(self.instances())

    def plain(self) -> ExtendedRun:
        """The underlying extended run over ``⟨I, H⟩`` (sequence numbers dropped)."""
        return ExtendedRun(
            self._initial.plain(),
            [
                Step(step.source.plain(), step.action, step.substitution, step.target.plain())
                for step in self._steps
            ],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecencyBoundedRun):
            return NotImplemented
        return (
            self._bound == other._bound
            and self._initial == other._initial
            and self._steps == other._steps
        )

    def __hash__(self) -> int:
        return hash((self._bound, self._initial, self._steps))

    def __repr__(self) -> str:
        return f"RecencyBoundedRun(b={self._bound}, steps={len(self._steps)})"


def initial_recency_configuration(system: DMS) -> RecencyConfiguration:
    """The initial b-bounded configuration ``⟨I0, ∅, ε⟩``.

    For relaxed systems whose initial instance has a non-empty active
    domain (e.g. produced by constant removal), the initial elements are
    numbered canonically in a deterministic order.
    """
    adom = system.initial_instance.active_domain()
    seq_no = SequenceNumbering.empty().extend_with(sorted(adom, key=repr))
    return RecencyConfiguration(
        instance=system.initial_instance,
        history=frozenset(adom),
        seq_no=seq_no,
    )


def is_b_bounded_substitution(
    action: Action,
    configuration: RecencyConfiguration,
    sigma: Mapping[str, Value],
    bound: int | None,
) -> bool:
    """Check conditions 1–2 of the b-bounded edge relation for ``σ``."""
    if not is_instantiating_substitution(action, configuration.plain(), sigma):
        return False
    recent = configuration.recent(bound)
    return all(sigma[parameter] in recent for parameter in action.parameters)


def apply_action_b_bounded(
    action: Action,
    configuration: RecencyConfiguration,
    sigma: Mapping[str, Value],
    bound: int | None,
    check: bool = True,
) -> RecencyConfiguration:
    """Apply one b-bounded step and return the successor configuration.

    The sequence numbering is extended so that the fresh values receive
    increasing numbers, larger than every number used so far, in the order
    of ``α·new`` (conditions 3–4).  ``check`` validates ``σ`` first
    (:func:`is_b_bounded_substitution`); the successor itself is built
    from the action's compiled update, like every explored successor.
    """
    if check and not is_b_bounded_substitution(action, configuration, sigma, bound):
        raise ExecutionError(
            f"{dict(sigma)!r} is not a {bound}-bounded instantiating substitution "
            f"for {action.name}"
        )
    substitution = Substitution(dict(sigma))
    values = tuple(substitution[variable] for variable in action.all_variables)
    instance = configuration.instance
    _require_schema(action, instance)
    fresh_values = values[len(action.parameters):]
    return RecencyConfiguration._trusted(
        action.updated_instance(instance, values),
        configuration.history | frozenset(fresh_values),
        configuration.seq_no.extend_with(fresh_values),
    )


def _require_schema(action: Action, instance: DatabaseInstance) -> None:
    if action.schema is not instance.schema and action.schema != instance.schema:
        raise SchemaError("database algebra requires both instances over the same schema")


def enumerate_b_bounded_successors(
    system: DMS,
    configuration: RecencyConfiguration,
    bound: int | None,
    actions: Sequence[Action] | None = None,
) -> Iterator[RecencyStep]:
    """Enumerate the canonical b-bounded successors of a configuration.

    The action parameters are bound over ``Recent_b`` only (condition 2):
    each guard is answered by its compiled join plan
    (:meth:`~repro.dms.action.Action.guard_plan`), whose scans bind a
    parameter only to a recent value.  Fresh values are the least unused
    standard names; each action takes the prefix it needs.  An action
    whose guard scans a relation without rows is skipped before its plan
    runs (:attr:`~repro.fol.plan.QueryPlan.required`).  With
    ``bound=None`` the steps are those of
    :func:`repro.dms.semantics.enumerate_successors`, in the same order,
    with sequence numbers attached.

    Successors are built from validated parts without checking them
    again: the action's compiled update
    (:meth:`~repro.dms.action.Action.updated_instance`), and ``H'`` and
    ``seq_no'``, built once per fresh count and shared by every
    successor that adds that many values.  Nothing outlives the call.
    """
    chosen = tuple(actions) if actions is not None else system.actions
    instance = configuration.instance
    relations = instance.rows_by_relation().keys()
    recent = configuration.recent(bound)
    constraints = system.constraints
    fresh_names: tuple = ()
    extensions = {0: (configuration.history, configuration.seq_no)}
    for action in chosen:
        plan = action.guard_plan()
        if not relations >= plan.required:
            continue
        answers = plan.answers(instance, recent)
        if not answers:
            continue
        _require_schema(action, instance)
        count = len(action.fresh)
        if count > len(fresh_names):
            fresh_names = FreshValueAllocator(used=configuration.history).fresh_many(
                max(len(other.fresh) for other in chosen)
            )
        fresh_values = fresh_names[:count]
        if count not in extensions:
            extensions[count] = (
                configuration.history | frozenset(fresh_values),
                configuration.seq_no.extend_with(fresh_values),
            )
        history, seq_no = extensions[count]
        fresh = dict(zip(action.fresh, fresh_values))
        for values in answers:
            target = action.updated_instance(instance, values + fresh_values)
            if constraints and not constraints.satisfied_by(target):
                continue
            yield RecencyStep(
                source=configuration,
                action=action,
                substitution=Substitution(dict(zip(action.parameters, values)) | fresh),
                target=RecencyConfiguration._trusted(target, history, seq_no),
            )


def execute_b_bounded_labels(
    system: DMS,
    labels,
    bound: int,
    check: bool = True,
) -> RecencyBoundedRun:
    """Replay a generating sequence under the b-bounded semantics."""
    configuration = initial_recency_configuration(system)
    run = RecencyBoundedRun(bound, configuration)
    for action_name, sigma in labels:
        action = system.action(action_name)
        target = apply_action_b_bounded(action, configuration, sigma, bound, check=check)
        if check and system.constraints and not system.constraints.satisfied_by(target.instance):
            raise ExecutionError(
                f"action {action_name} under {dict(sigma)!r} violates the database constraints"
            )
        step = RecencyStep(
            source=configuration,
            action=action,
            substitution=Substitution(dict(sigma)),
            target=target,
        )
        run = run.extend(step)
        configuration = target
    return run


def is_b_bounded_extended_run(system: DMS, labels, bound: int) -> bool:
    """True when the generating sequence is admitted by the b-bounded semantics."""
    try:
        execute_b_bounded_labels(system, labels, bound, check=True)
    except (ExecutionError, RecencyError):
        return False
    return True


def minimal_recency_bound(system: DMS, labels, max_bound: int = 64) -> int | None:
    """The least bound ``b ≤ max_bound`` admitting the generating sequence.

    Returns ``None`` when no bound up to ``max_bound`` admits it.  Used in
    the Example 5.1 reproduction (the Figure 1 run is 2-recency-bounded).
    """
    for bound in range(0, max_bound + 1):
        if is_b_bounded_extended_run(system, labels, bound):
            return bound
    return None
