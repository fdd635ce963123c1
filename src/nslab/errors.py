"""Exception hierarchy shared across the package.

Every `NslabError` falls in one of two families, which the command line
maps to its exit codes: configuration (2) is `ConfigError`, with
`AsymmetricGauge`, and `ExpressionSyntaxError` with its subclasses;
numerical (3) is every other `NslabError`.
"""


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


class AsymmetricGauge(ConfigError):
    """A gauge tensor's mirrored entries (k, i, j) and (k, j, i) differ."""


class NonFiniteState(NslabError):
    """The integration step stalled before the recorded time t.

    The step fell below `dynamics.STEP_FLOOR` times the recording
    interval, as at a blow-up, a singularity of the flow or an exit from
    the system's domain; the state may still be finite.  `component` names
    the state component (x1, p1, tau1_1, dp1_1, ...) whose scaled error
    estimate was largest in the stalled row's last attempt.
    """

    def __init__(self, t, component):
        super().__init__("the integration step fell below dynamics.STEP_FLOOR "
                         f"times the recording interval before t={t!r}; the "
                         f"largest error estimate of the last attempt was in {component}")
        self.t = t
        self.component = component


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
