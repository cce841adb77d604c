"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine bugs (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """A graph container is structurally invalid (bad offsets, dangling edges...)."""


class GenerationError(ReproError):
    """A synthetic graph generator was given unusable parameters."""


class ConfigError(ReproError):
    """An accelerator / network configuration is inconsistent or unsupported."""


class CapacityError(ReproError):
    """A dataset does not fit the modelled on-chip memory and slicing is disabled."""


class SimulationError(ReproError):
    """The cycle simulator reached an inconsistent state (internal invariant broken)."""


class FifoOverflowError(SimulationError, OverflowError):
    """A writer pushed into a full FIFO (backpressure was ignored).

    Subclasses :class:`OverflowError` so callers that predate the
    :class:`ReproError` taxonomy keep working unchanged.
    """


class StatsSchemaError(ReproError, ValueError):
    """A serialized :class:`SimStats` payload does not match the schema.

    Subclasses :class:`ValueError` so callers that predate the
    :class:`ReproError` taxonomy (e.g. cache loaders catching
    ``ValueError``) keep working unchanged.
    """


class AlgorithmError(ReproError, TypeError):
    """An algorithm class leaves a VCPM kernel neither declared as a
    closed form nor written.

    Subclasses :class:`TypeError`: like an abstract method left
    unimplemented, it is a defect of the class, refused when the class
    is defined.
    """


class SweepError(ReproError):
    """A sweep plan or execution request is malformed (unknown axis, bad job count...)."""


class ProtocolError(ReproError):
    """A serve-protocol message is malformed (bad JSON, unknown type, missing field)."""


class ProtocolVersionError(ProtocolError):
    """Peer speaks an incompatible serve-protocol version."""


class ServeError(ReproError):
    """The serve daemon rejected a request or failed while executing it."""
