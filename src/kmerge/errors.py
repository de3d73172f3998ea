"""Exception hierarchy shared by all kmerge modules."""


class KMergeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(KMergeError):
    """A tensor, shape or library argument is invalid: dimensions that
    disagree with the declared rank or widths, an adapter's scale, a layer
    key, a truncation rank, a drop rate or a merge weight. Policy values
    raise :class:`ConfigError`."""


class FormatError(KMergeError):
    """An adapter file is malformed, or a suite directory holds none.
    Carries the byte offset of the problem in a file, when there is one."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset

    def in_file(self, path) -> "FormatError":
        """This error with the file at ``path`` named in front of its message."""
        return FormatError(f"{path}: {self.reason}", self.offset)


class IncompatibleAdapters(KMergeError):
    """Two adapters do not share the same layer key-set. (Same keys at
    different widths raise :class:`ShapeError`.)"""


class EmptyStore(KMergeError):
    """An operation requiring at least one occupied slot found none."""


class InsufficientInputs(KMergeError):
    """A call that compares or merges several inputs received fewer than
    two: a multi-input merge operator, a similarity matrix or a threshold
    calibration."""


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
