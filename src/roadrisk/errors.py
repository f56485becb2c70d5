"""Exception hierarchy shared across the package.

Three branches map onto the CLI exit codes: config problems (exit 2),
data problems (exit 3), numeric failures (exit 4).
"""

from __future__ import annotations


class RoadRiskError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RoadRiskError):
    """Invalid or inconsistent run configuration."""


class DataError(RoadRiskError):
    """Problem with input data or upstream artifacts."""


class NumericError(RoadRiskError):
    """Numeric computation failed or produced invalid values."""


class MissingColumnError(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column missing from input: {name!r}")
        self.name = name


class TooManyRejectsError(DataError):
    def __init__(self, rejected: int, total: int):
        super().__init__(
            f"{rejected} of {total} rows rejected (>50%); refusing to continue"
        )
        self.rejected = rejected
        self.total = total


class UnassignedRecordError(DataError):
    def __init__(self, record_id: str):
        super().__init__(f"record {record_id!r} has no node assignment")
        self.record_id = record_id


class EmptyInputError(DataError):
    pass


class MissingArtifactError(DataError):
    """An artifact file a stage needs and no earlier stage has written."""

    def __init__(self, path, stage: str):
        super().__init__(f"required artifact {path} not found; run `{stage}` first")
        self.path = path


class CorruptArtifactError(DataError):
    """An artifact file one stage wrote and a later stage cannot read."""

    def __init__(self, path, line: int | None, problem: str, stage: str):
        where = path if line is None else f"{path} line {line}"
        super().__init__(f"{where}: {problem}; run `{stage}` again")
        self.path = path
        self.line = line


class InsufficientHistoryError(DataError):
    pass


class InsufficientGroupsError(DataError):
    pass


class ShapeMismatchError(NumericError):
    pass


class DegenerateGeometryError(NumericError):
    pass


class ZeroDegreeNodeError(NumericError):
    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} has zero degree; cannot normalize")
        self.node_id = node_id


class NonFiniteLossError(NumericError):
    pass


class AllMaskedError(NumericError):
    pass
