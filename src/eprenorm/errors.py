"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(ToolkitError):
    """Invalid or unreadable configuration input."""


class SolverFailure(ToolkitError):
    """A solver found no usable answer for valid input (CLI exit code 2)."""


class PolePseudomode(SolverFailure):
    """Evaluation requested at the eliminated pseudomode pole lambda = -Omega_c."""


class DegenerateDenominator(SolverFailure):
    """g(lambda)^2 + g_c^2 vanished; the double-root parametrization is singular."""


class NoMarkovianEp(SolverFailure):
    """kappa <= gamma: the memoryless system admits no exceptional point."""


class NoConvergence(SolverFailure):
    """Newton iteration failed to converge from its seed."""


class NonPhysicalEp(SolverFailure):
    """An EP route's drive coordinates fail g > 0 and delta < 0, or lie
    outside the rate range (epsolver._ep_drive is the one rule)."""


class OrderCheckFailed(ToolkitError):
    """Double-root certificate violated.  Carries the measured magnitudes."""

    def __init__(self, p_mag, dp_mag, ddp_mag):
        self.p_mag = p_mag
        self.dp_mag = dp_mag
        self.ddp_mag = ddp_mag
        super().__init__(f"|p|={p_mag:.3e}, |p'|={dp_mag:.3e}, |p''|={ddp_mag:.3e}")


class SingularDenominator(SolverFailure):
    """Response denominator D(omega) vanished (instability or pole)."""


class StepTooLarge(ToolkitError):
    """Integrator step exceeds the stability/accuracy bound."""
