"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so a
caller can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relation is used inconsistently with the declared schema."""


class ArityError(SchemaError):
    """A fact or atom has the wrong number of arguments for its relation."""


class UnknownRelationError(SchemaError):
    """A relation name is not declared in the schema."""


class QueryError(ReproError):
    """A FOL(R) query is malformed or evaluated incorrectly."""


class QueryParseError(QueryError):
    """The textual form of a FOL(R) query could not be parsed."""


class SubstitutionError(ReproError):
    """A substitution is missing a binding or binds the wrong kind of value."""


class ActionError(ReproError):
    """A DMS action violates a well-formedness condition of the paper."""


class SystemError_(ReproError):
    """A DMS is malformed (bad initial instance, duplicate actions, ...)."""


class ExecutionError(ReproError):
    """An action application violates the execution semantics."""


class RecencyError(ReproError):
    """A recency-bounded construct (sequence numbering, abstraction) is misused."""


class EncodingError(ReproError):
    """A nested-word encoding of a run is malformed or invalid."""


class NestedWordError(ReproError):
    """A word over a visible alphabet violates well-nestedness."""


class FormulaError(ReproError):
    """An MSO-FO or MSONW formula is malformed or evaluated with missing bindings."""


class SearchError(ReproError):
    """Raised on invalid exploration-engine configuration or use."""


class ModelCheckingError(ReproError):
    """The model checker was invoked with inconsistent arguments."""


class WorkerPoolError(ReproError):
    """A persistent worker pool was misused or could not serve a request."""


class SchedulerError(ReproError):
    """A sweep point failed (its measure raised, or its worker failed)."""


class DistributedError(ReproError):
    """A distributed exploration (coordinator/agent protocol) was misused
    or a transport frame could not be exchanged."""


class NodeCrashError(DistributedError):
    """A node agent died (socket EOF, torn frame, missed heartbeats) while
    the coordinator still needed it."""


class StoreError(ReproError):
    """The content-addressed result store was misused or is corrupt."""


class StoreKeyError(StoreError):
    """A query cannot be content-addressed (non-canonical value types or
    an unkeyable component such as a search heuristic)."""


class SessionError(ReproError):
    """The session facade (:class:`repro.api.Session`) was misused."""


class QueryTimeoutError(SessionError):
    """An isolated query outlived its wall-clock budget (its worker was
    killed; the session stays healthy)."""


class ServiceError(ReproError):
    """The verification service was misconfigured or misused."""


class AdmissionError(ServiceError):
    """A request was rejected by admission control (service at capacity)."""


class TransformError(ReproError):
    """A model transformation (Appendix F) cannot be applied."""


class CounterMachineError(ReproError):
    """A counter machine definition or simulation step is invalid."""
