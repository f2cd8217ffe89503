"""Exception hierarchy shared across the package."""


class BesforgeError(Exception):
    """Base class for all domain errors."""


class FormatError(BesforgeError):
    """Malformed text input (file formats, CLI payloads)."""


class ParameterError(BesforgeError):
    """A caller-supplied parameter is out of range for the operation."""


class LinearityError(BesforgeError):
    """Input system violates linearity; carries the witness verdict."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            f"pair {verdict.pair} lies in two edges {verdict.edges[0]} and {verdict.edges[1]}"
        )


class DegenerateInputError(BesforgeError):
    """No win is available and the reduction would be empty."""


class GuardExceededError(BesforgeError):
    """An exhaustive routine was asked to enumerate beyond its guard."""


class IntegrityError(BesforgeError):
    """Internal cross-reference failed (edge missing from the multigraph, foreign hyperedge)."""


class AuditError(BesforgeError):
    """A step-involvement audit found a violation; names the offending steps."""

    def __init__(self, message, steps=()):
        self.steps = tuple(steps)
        super().__init__(message)


class GrowthError(BesforgeError):
    """High-girth growth ran out of valid attachment pairs."""

    def __init__(self, step):
        # step v adds vertex v, so the graph has v vertices when it fails
        self.step = step
        super().__init__(f"no valid attachment pair at step {step} (graph has {step} vertices)")


class ExhaustionError(BesforgeError):
    """The residual system ran out of hyperedges mid-assembly."""

    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(f"need {needed} hyperedges but only {available} remain")
