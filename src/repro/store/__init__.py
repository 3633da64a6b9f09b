"""Content-addressed persistence of exploration results.

The verification queries of the reproduction are pure functions of the
system, the bound, the condition, the limits and the engine knobs that
change results — so their outcomes are **content-addressable**.  This
package stores them that way:

* :mod:`repro.store.canonical` — domain-stable sha256 hashes of
  systems, schemas and actions (independent of ``PYTHONHASHSEED``),
  derived through a strict, collision-free canonicaliser
  (:func:`canonical_parameters`, :func:`point_key`);
* :mod:`repro.store.store` — :class:`ResultStore`, the SQLite index +
  pickle-blob store with self-repair (corrupt or missing blobs are
  recomputed, never served) and schema-change invalidation;
* :mod:`repro.store.capture` — complete per-action subgraph recording
  and the delta-verification successor function that re-explores a
  modified system while reusing every still-valid expansion;
* :mod:`repro.store.service` — the orchestration every store-aware
  entry point funnels through (:func:`cached_compute` /
  :func:`resolve_store`, honouring the ``REPRO_STORE`` environment
  variable).

Quick start::

    from repro.api import run_reachability

    first = run_reachability(system, "p", bound=2, store="run.store")
    again = run_reachability(system, "p", bound=2, store="run.store")
    assert again == first      # served in O(lookup), bit-identical

A store hit returns a result bit-identical to the cold exploration —
states, depths, edges, truncation, verdicts and witnesses included —
across all retention modes; see ``tests/test_store.py`` and the E18
benchmark for the enforced guarantees.
"""

from repro.errors import StoreError, StoreKeyError
from repro.store.canonical import (
    action_hash,
    action_hashes,
    base_hash,
    canonical_action,
    canonical_parameters,
    canonical_system,
    digest,
    key_digest,
    point_key,
    schema_hash,
    system_hash,
)
from repro.store.capture import DeltaSuccessors, Subgraph, SubgraphRecorder
from repro.store.service import StoreOutcome, cached_compute, resolve_store
from repro.store.store import KIND_RESULT, KIND_SUBGRAPH, ResultStore

__all__ = [
    "KIND_RESULT",
    "KIND_SUBGRAPH",
    "DeltaSuccessors",
    "ResultStore",
    "StoreError",
    "StoreKeyError",
    "StoreOutcome",
    "Subgraph",
    "SubgraphRecorder",
    "action_hash",
    "action_hashes",
    "base_hash",
    "cached_compute",
    "canonical_action",
    "canonical_parameters",
    "canonical_system",
    "digest",
    "key_digest",
    "point_key",
    "resolve_store",
    "schema_hash",
    "system_hash",
]
