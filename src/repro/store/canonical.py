"""Canonical structural hashing of systems, actions and store keys.

The content-addressed result store (:mod:`repro.store.store`) keys its
entries by *what* was computed.  Python's built-in ``hash`` cannot serve
as that key: it is salted per interpreter (``PYTHONHASHSEED``), so the
same system hashes differently across runs — the very problem PR 5's
cross-interpreter fix (``__getstate__`` recomputing cached hashes)
worked around for pickles.  This module instead derives **domain-stable
sha256 digests** from canonical JSON forms:

* every structural component is rendered as sorted lists/dicts of JSON
  scalars (facts sorted, dictionary keys sorted, guards and constraints
  rendered through their deterministic ``str()`` forms);
* the rendering goes through :func:`canonical_parameters`, a strict
  canonicaliser: values outside the JSON scalar domain raise
  :class:`~repro.errors.StoreKeyError` instead of being stringified
  into collisions;
* the digest is the sha256 of the compact, key-sorted JSON encoding
  (:func:`point_key` for a parameter assignment).

The *name* of a system is deliberately **excluded** from
:func:`system_hash`: renaming a system must not change its content
address.  The name is kept separately as the store's ``family`` column,
which scopes schema-change invalidation and statistics.  A system's
hash is computed once and kept on the (frozen, immutable) system
object, so store lookups and warm-context keys cost a dictionary read.

Per-action digests (:func:`action_hashes`) are the unit of
delta-verification: an exploration's cached subgraph records the digest
of every action it expanded under, so a later run over a *modified*
system can tell exactly which actions' successor sets are still valid
(see :mod:`repro.store.capture`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.dms.action import Action
from repro.dms.system import DMS
from repro.errors import StoreKeyError

__all__ = [
    "action_hash",
    "action_hashes",
    "base_hash",
    "canonical_action",
    "canonical_parameters",
    "canonical_system",
    "digest",
    "key_digest",
    "point_key",
    "schema_hash",
    "serialised_digest",
    "system_hash",
]

_SCALARS = (str, int, float, bool, type(None))


def canonical_parameters(value):
    """The canonical JSON-able form of a parameter value (recursive).

    Mappings are rebuilt with sorted string keys, sequences (lists and
    tuples alike) become lists, and scalars are restricted to the JSON
    domain — ``str``/``int``/``float``/``bool``/``None``.  Anything else
    raises instead of being stringified, so two distinct parameter
    values can never share a canonical form.  JSON is injective on this
    domain (``True`` renders differently from ``1``, ``2`` from
    ``2.0``), which makes :func:`point_key` collision-free.

    Raises:
        TypeError: on values outside the canonical domain (sets,
            callables, paths, enum members, arbitrary objects, ...).
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, Mapping):
        canonical = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"parameter keys must be strings, got {key!r} "
                    f"of type {type(key).__name__}"
                )
            canonical[key] = canonical_parameters(value[key])
        return {key: canonical[key] for key in sorted(canonical)}
    if isinstance(value, (list, tuple)):
        return [canonical_parameters(item) for item in value]
    raise TypeError(
        f"parameters must be JSON scalars, sequences or string-keyed "
        f"mappings; got {value!r} of type {type(value).__name__} — encode it as a "
        f"string (or a structure of scalars) explicitly instead of relying on str()"
    )


def point_key(parameters: Mapping) -> str:
    """The canonical serialisation of one parameter assignment.

    Compact, key-sorted JSON of :func:`canonical_parameters`; the store
    index records it next to each entry, and :func:`key_digest` hashes
    it into the entry's key.

    Raises:
        TypeError: when the assignment contains values outside the
            canonical JSON domain (see :func:`canonical_parameters`).
    """
    return json.dumps(canonical_parameters(parameters), sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """The sha256 hex digest of the canonical JSON encoding of ``value``.

    Raises:
        StoreKeyError: when ``value`` contains components outside the
            canonical JSON domain (see :func:`canonical_parameters`).
    """
    try:
        canonical = canonical_parameters(value)
    except TypeError as error:
        raise StoreKeyError(f"value cannot be content-addressed: {error}") from error
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def key_digest(parameters) -> str:
    """The store key of one canonical parameter assignment.

    Hashes :func:`point_key` (the collision-free canonical
    serialisation), so keys stay fixed-width regardless of how large
    the assignment grows.

    Raises:
        StoreKeyError: on values outside the canonical domain.
    """
    try:
        serialised = point_key(parameters)
    except TypeError as error:
        raise StoreKeyError(f"store key cannot be derived: {error}") from error
    return serialised_digest(serialised)


def serialised_digest(serialised: str) -> str:
    """The store key of an assignment already serialised by :func:`point_key`.

    ``key_digest(p) == serialised_digest(point_key(p))``; callers that
    also record the serialisation hash it once instead of twice.
    """
    return hashlib.sha256(serialised.encode("utf-8")).hexdigest()


def _canonical_fact(fact) -> list:
    return [fact.relation, list(fact.arguments)]


def _canonical_facts(facts) -> list:
    return sorted((_canonical_fact(fact) for fact in facts), key=repr)


def _canonical_schema(schema) -> list:
    return [[relation.name, relation.arity] for relation in schema.relations]


def canonical_action(action: Action) -> dict:
    """The canonical JSON form of one action.

    Guards are rendered through their deterministic ``str()`` form;
    ``Del``/``Add`` facts (over variables) are sorted.
    """
    return {
        "name": action.name,
        "parameters": list(action.parameters),
        "fresh": list(action.fresh),
        "guard": str(action.guard),
        "delete": _canonical_facts(action.deletions.facts),
        "add": _canonical_facts(action.additions.facts),
    }


def canonical_system(system: DMS) -> dict:
    """The canonical JSON form of a DMS (excluding its display name)."""
    return {
        "schema": _canonical_schema(system.schema),
        "initial": _canonical_facts(system.initial_instance.facts),
        "constraints": sorted(str(constraint) for constraint in system.constraints),
        "actions": [canonical_action(action) for action in system.actions],
    }


def system_hash(system: DMS) -> str:
    """The domain-stable content hash of a DMS (name excluded).

    Computed once per system object and kept on it: a DMS is frozen and
    its parts are immutable, so its content cannot change afterwards.
    """
    cached = system.__dict__.get("_content_hash")
    if cached is None:
        cached = digest(canonical_system(system))
        object.__setattr__(system, "_content_hash", cached)
    return cached


def schema_hash(schema) -> str:
    """The domain-stable content hash of a relational schema."""
    return digest(_canonical_schema(schema))


def base_hash(system: DMS) -> str:
    """The hash of the exploration *base*: schema, initial instance, constraints.

    Two systems with equal base hashes explore the same state universe
    under their shared actions, which is the eligibility condition for
    serving one system's cached subgraph as the delta-verification memo
    of the other (the actions themselves are compared per action, via
    :func:`action_hashes`).
    """
    return digest(
        {
            "schema": _canonical_schema(system.schema),
            "initial": _canonical_facts(system.initial_instance.facts),
            "constraints": sorted(str(constraint) for constraint in system.constraints),
        }
    )


def action_hash(action: Action) -> str:
    """The domain-stable content hash of one action."""
    return digest(canonical_action(action))


def action_hashes(system: DMS) -> dict[str, str]:
    """``{action name: content hash}`` for every action of the system."""
    return {action.name: action_hash(action) for action in system.actions}
