"""Exception types shared across the toolkit."""


class CgmError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(CgmError, ValueError):
    """Array shapes or symmetry requirements violated."""


class InfeasibleConstraintError(CgmError, RuntimeError):
    """Constraint system inconsistent beyond the rank tolerance. Carries the
    index of the failing right-hand side of a stacked solve, or None."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class DegenerateBatchError(CgmError, ValueError):
    """Batch too small for batch statistics (train mode needs B >= 2)."""


class CacheMismatchError(CgmError, RuntimeError):
    """Backward pass received a cache from a different forward pass."""


class LatticeError(CgmError, ValueError):
    """Deformation lattice is invalid (singular placement map)."""


class StlParseError(CgmError, ValueError):
    """Malformed STL input. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OrientationError(CgmError, ValueError):
    """Surface flagged closed is open or inconsistently oriented."""


class EmptyInputError(CgmError, ValueError):
    """Operation requires at least one element."""


class DegenerateSurfaceError(CgmError, ValueError):
    """Surface gives an all-zero constraint row."""


class DegenerateSitesError(CgmError, RuntimeError):
    """Interpolation sites are affinely degenerate."""


class ConditioningError(CgmError, RuntimeError):
    """Matrix not positive definite after jitter escalation."""


class DivergenceError(CgmError, RuntimeError):
    """Training produced a non-finite loss. Carries the epoch."""

    def __init__(self, message, epoch=None):
        self.epoch = epoch
        if epoch is not None:
            message = f"epoch {epoch}: {message}"
        super().__init__(message)


class DegenerateDistributionError(CgmError, ValueError):
    """Sample vector has zero variance; no density estimate possible."""


class ConfigError(CgmError, ValueError):
    """Invalid or inconsistent configuration. Carries the key named, or None."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)


class ContainerError(CgmError, ValueError):
    """Tensor container file is malformed or truncated; names the path."""
