"""Exception hierarchy shared across the package."""


class NslabError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionSyntaxError(NslabError):
    """Raised by the parser; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionSyntaxError):
    pass


class VariableIndexError(ExpressionSyntaxError):
    """Variable index exceeds the dimension of the owning system."""


class EvaluationDomainError(NslabError):
    """Evaluation left the domain of an elementary function.

    The offending subexpression text is included in the message.
    """

    def __init__(self, message, snippet=None, offset=None):
        if snippet is not None:
            message = f"{message} in subexpression '{snippet}'"
            if offset is not None:
                message += f" (at offset {offset})"
        super().__init__(message)
        self.snippet = snippet
        self.offset = offset


class ConfigError(NslabError):
    """Malformed system or surface configuration."""


class SingularMetric(NslabError):
    """det(dV/dp) vanished at an evaluation point."""


class DegenerateOmega(NslabError):
    """The kinetic scalar <p|W> vanished at an evaluation point."""


class ZeroWv(NslabError):
    """dW/dv vanished; the flat-space force formula is undefined there."""


class AsymmetricGauge(NslabError):
    """A gauge tensor failed its lower-index symmetry invariant."""


class NonFiniteState(NslabError):
    """Integration produced a non-finite state component."""

    def __init__(self, t):
        super().__init__(f"non-finite state at t={t!r}")
        self.t = t


class NonFiniteResidual(NslabError):
    """A normality residual came out NaN or infinite.

    `residual` is the assembled residual, at a point or a batch, so a sweep
    can keep the rows that are finite.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class NuVanished(NslabError):
    """|nu| fell below threshold while integrating the Pfaff system."""


class RankDeficientTangents(NslabError):
    """Surface tangent vectors are linearly dependent at a parameter value."""
