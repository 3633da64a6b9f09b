"""Execution semantics of a DMS (paper, Section 3): the reference.

The module implements:

* instantiating substitutions (the four conditions of the paper),
* the effect of applying an action under a substitution
  (``I' = (I − Substitute(Del, σ)) + Substitute(Add, σ)``,
  ``H' = H ∪ σ(v⃗)``),
* enumeration of all successors of a configuration when the fresh values
  are drawn canonically from a :class:`~repro.database.domain.FreshValueAllocator`.

Fresh values range over an infinite domain, so the *raw* configuration
graph is infinitely branching; successor enumeration therefore always
uses canonical fresh values (the least unused standard names), which is
sound for verification by the isomorphism-modulo-permutation argument of
Appendix E.

:func:`enumerate_successors` is the Section 3 relation, kept as the
reference the tests compare against.  Explorations run on
:func:`repro.recency.semantics.enumerate_b_bounded_successors`, whose
``bound=None`` is this relation with sequence numbers attached.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.database.domain import FreshValueAllocator, Value
from repro.database.instance import DatabaseInstance
from repro.database.substitution import Substitution
from repro.dms.action import Action
from repro.dms.configuration import Configuration
from repro.dms.run import ExtendedRun, Step
from repro.dms.system import DMS
from repro.errors import ExecutionError, SchemaError
from repro.fol.evaluator import iter_answers, satisfies

__all__ = [
    "is_instantiating_substitution",
    "apply_action",
    "successor_configuration",
    "enumerate_guard_answers",
    "enumerate_successors",
    "execute_labels",
    "initial_configuration",
]


def initial_configuration(system: DMS) -> Configuration:
    """The initial configuration ``⟨I0, adom(I0)⟩`` (``adom(I0) = ∅`` normally)."""
    return Configuration.initial(system.initial_instance)


def is_instantiating_substitution(
    action: Action,
    configuration: Configuration,
    sigma: Mapping[str, Value],
) -> bool:
    """Check the four conditions for ``σ`` to instantiate ``α`` at ``⟨I, H⟩``.

    1. every parameter is mapped into ``adom(I)``;
    2. every fresh-input variable is mapped to a history-fresh value;
    3. the fresh-input variables are mapped injectively;
    4. the guard holds: ``I, σ|u⃗ ⊨ Q``.
    """
    instance = configuration.instance
    adom = configuration.active_domain
    history = configuration.history
    substitution = Substitution(dict(sigma))
    for parameter in action.parameters:
        if parameter not in substitution or substitution[parameter] not in adom:
            return False
    for fresh_variable in action.fresh:
        if fresh_variable not in substitution or substitution[fresh_variable] in history:
            return False
    if not substitution.is_injective_on(action.fresh):
        return False
    guard_binding = substitution.restrict(action.parameters)
    return satisfies(instance, action.guard, guard_binding)


def apply_action(
    action: Action,
    configuration: Configuration,
    sigma: Mapping[str, Value],
    check: bool = True,
) -> Configuration:
    """Apply ``α`` under ``σ`` at ``⟨I, H⟩`` and return ``⟨I', H'⟩``.

    Raises:
        ExecutionError: when ``check`` is set and ``σ`` is not an
            instantiating substitution for ``α`` at the configuration.
    """
    if check and not is_instantiating_substitution(action, configuration, sigma):
        raise ExecutionError(
            f"{dict(sigma)!r} is not an instantiating substitution for {action.name} "
            f"at {configuration}"
        )
    substitution = Substitution(dict(sigma))
    instance = configuration.instance
    if action.schema is not instance.schema and action.schema != instance.schema:
        raise SchemaError("database algebra requires both instances over the same schema")
    # One construction of (I − Del) + Add, validating every fact.
    new_instance = instance.apply_update(
        action.deletions.instantiate(substitution.restrict(action.parameters)),
        action.additions.instantiate(substitution),
    )
    new_history = configuration.extend_history(
        substitution[v] for v in action.fresh
    )
    return Configuration(instance=new_instance, history=new_history)


def successor_configuration(
    action: Action,
    configuration: Configuration,
    sigma: Mapping[str, Value],
    constraints=None,
) -> Configuration | None:
    """Like :func:`apply_action` but returns ``None`` when not applicable.

    When ``constraints`` is a non-empty
    :class:`~repro.database.constraints.ConstraintSet`, the successor is
    suppressed if it violates a constraint (blocking semantics of
    Example 4.3).
    """
    if not is_instantiating_substitution(action, configuration, sigma):
        return None
    successor = apply_action(action, configuration, sigma, check=False)
    if constraints and not constraints.satisfied_by(successor.instance):
        return None
    return successor


def enumerate_guard_answers(
    action: Action, instance: DatabaseInstance
) -> Iterator[Substitution]:
    """All parameter bindings ``σ : u⃗ → adom(I)`` with ``I, σ ⊨ Q``, in a fixed order."""
    for answer in iter_answers(action.guard, instance, action.parameters):
        yield Substitution({u: answer[u] for u in action.parameters})


def enumerate_successors(
    system: DMS,
    configuration: Configuration,
    actions: Sequence[Action] | None = None,
) -> Iterator[Step]:
    """Enumerate all canonical successors of a configuration.

    The fresh-input variables are bound to the least standard names not in
    the history (canonical choice; Appendix E makes this without loss of
    generality).  Each yielded :class:`Step` carries the full substitution.
    """
    chosen_actions = tuple(actions) if actions is not None else system.actions
    for action in chosen_actions:
        for guard_answer in enumerate_guard_answers(action, configuration.instance):
            allocator = FreshValueAllocator(used=configuration.history)
            fresh_values = allocator.fresh_many(len(action.fresh))
            sigma = guard_answer.merge(dict(zip(action.fresh, fresh_values)))
            successor = successor_configuration(
                action, configuration, sigma, constraints=system.constraints
            )
            if successor is None:
                continue
            yield Step(
                source=configuration,
                action=action,
                substitution=sigma,
                target=successor,
            )


def execute_labels(
    system: DMS,
    labels: Iterable[tuple[str, Mapping[str, Value]]],
    check: bool = True,
) -> ExtendedRun:
    """Replay a generating sequence ``⟨α0:σ0⟩⟨α1:σ1⟩...`` from the initial configuration.

    Args:
        system: the DMS.
        labels: pairs of action name and substitution.
        check: validate each substitution against the execution semantics.

    Returns:
        The extended run prefix induced by the labels.
    """
    configuration = initial_configuration(system)
    run = ExtendedRun(configuration)
    for action_name, sigma in labels:
        action = system.action(action_name)
        target = apply_action(action, configuration, sigma, check=check)
        if check and system.constraints and not system.constraints.satisfied_by(target.instance):
            raise ExecutionError(
                f"action {action_name} under {dict(sigma)!r} violates the database constraints"
            )
        step = Step(
            source=configuration,
            action=action,
            substitution=Substitution(dict(sigma)),
            target=target,
        )
        run = run.extend(step)
        configuration = target
    return run
