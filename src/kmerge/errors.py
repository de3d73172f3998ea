"""Exception hierarchy shared by all kmerge modules."""


class KMergeError(Exception):
    """Base class for all errors raised by this package."""


class KeyNotFound(KMergeError):
    """A requested (layer, projection) key is absent from an adapter."""


class ShapeError(KMergeError):
    """A tensor, shape or library argument is invalid: dimensions that
    disagree with the declared rank or widths, a layer key, a truncation
    rank, a drop rate or a merge weight. Policy values raise
    :class:`ConfigError`."""


class FormatError(KMergeError):
    """An adapter file is malformed. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IncompatibleAdapters(KMergeError):
    """Two adapters do not share the same layer key-set. (Same keys at
    different widths raise :class:`ShapeError`.)"""


class EmptyStore(KMergeError):
    """An operation requiring at least one occupied slot found none."""


class InsufficientData(KMergeError):
    """Threshold calibration needs at least two held-out adapters."""


class InsufficientInputs(KMergeError):
    """A multi-input merge operator received fewer than two inputs."""


class DuplicateTask(KMergeError):
    """A task id was delivered to the store more than once."""


class UnknownTask(KMergeError):
    """Routing was asked for a task that was never ingested."""


class SlotVacant(KMergeError):
    """A storage slot key does not refer to an occupied slot."""


class RestoreError(KMergeError):
    """A persisted store directory is missing files or has a bad manifest."""


class ConfigError(KMergeError):
    """A configuration record holds an infeasible value: a generator
    (``GeneratorConfig``), an ordering (``OrderingSpec``) or a policy
    (``PolicyConfig``, ``MergeOperator``, ``RankPolicy``), whether built
    from flags or read from ``--config``. The CLI exits 2 for it."""
