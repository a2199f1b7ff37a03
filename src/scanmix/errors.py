"""Exception types raised across the toolkit."""

import copyreg


class ScanmixError(Exception):
    """Base class for all scanmix errors."""

    def __reduce__(self):
        # Rebuild from the formatted message plus the attributes, without
        # calling __init__ (whose arguments differ per subclass), so an
        # error raised in a worker process reaches the parent intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptyInputError(ScanmixError):
    """An operation that requires a non-empty point cloud received none."""


class UnknownLabelError(ScanmixError):
    """A label value is outside the taxonomy (or missing from a mapping)."""

    def __init__(self, label, context=""):
        self.label = int(label)
        msg = f"unknown label {self.label}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ParseError(ScanmixError):
    """Malformed file content; carries the file position of the problem."""

    def __init__(self, path, message, line=None, offset=None):
        self.path = str(path)
        self.line = line
        self.offset = offset
        where = self.path
        if line is not None:
            where += f":{line}"
        if offset is not None:
            where += f" (byte {offset})"
        super().__init__(f"{where}: {message}")


class IoError(ScanmixError):
    """Underlying file read/write failure."""


class DuplicateSceneError(ScanmixError):
    """A manifest declares the same scene id twice."""


class MissingFileError(ScanmixError):
    """A manifest entry points at a file that does not exist."""


class OverlapError(ScanmixError):
    """Two furniture boxes in a scene spec intersect."""


class NoFreeSpaceError(ScanmixError):
    """No free cell is available for camera placement."""


class NoWallPointsError(ScanmixError):
    """The scene has no wall-labeled point to aim a camera at."""


class DegeneratePoseError(ScanmixError):
    """Camera forward axis is parallel to the vertical axis (no valid up)."""


class DegeneratePartitionError(ScanmixError):
    """Cloud extent is too small for the requested cuboid partition."""


class ShapeMismatchError(ScanmixError):
    """Two cuboid sets do not share the same partition shape."""


class DimensionError(ScanmixError):
    """Array dimensions are inconsistent with the model or each other."""


class NoSupervisionError(ScanmixError):
    """Every point in a training batch carries the ignore label."""


class DivergenceError(ScanmixError):
    """Training produced a non-finite loss."""


class NoEvaluatedClassesError(ScanmixError):
    """Every class has an undefined IoU (empty confusion matrix)."""


class ConfigError(ScanmixError):
    """Invalid or unknown pipeline configuration key/value."""


class StageError(ScanmixError):
    """A pipeline stage failed; message is tagged with the stage name."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
