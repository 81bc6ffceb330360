"""Exception types shared across the toolkit."""


class GridlossError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GridlossError, ValueError):
    """Invalid user-supplied value (parameter, graph definition, config)."""


class DisconnectedGraphError(GridlossError):
    """Graph is not connected (``NetworkGraph`` decides), or its second
    Laplacian eigenvalue is not resolved above the eigensolvers' rounding."""


class EdgeListParseError(GridlossError):
    """Malformed edge-list file; message carries the offending line number."""


class GraphGenerationError(GridlossError):
    """Random graph generation failed to produce a connected sample."""


class AssemblyError(GridlossError):
    """State-space assembly requested outside its validity region."""


class StabilityError(GridlossError):
    """A computation that requires asymptotic stability met a marginal or
    unstable mode."""


class LyapunovSolveError(GridlossError):
    """Lyapunov solve produced a residual above tolerance."""


class TuningError(GridlossError):
    """Gain optimization could not bracket a stationary point."""


class StepSizeError(GridlossError):
    """Integration step too large for the system's fastest mode."""


class FloatRangeError(GridlossError):
    """A norm, loss or derivative that the inputs define left the float
    range on its way: a value overflowed or came out NaN."""
