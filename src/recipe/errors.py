"""Exception types shared across the package."""


class RecipeError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(RecipeError, ValueError):
    """A numeric argument is outside its documented domain."""


class SequenceValidationError(RecipeError, ValueError):
    """An XDD or XDD sequence violates its distribution invariants, or an
    input artifact (a JSON file, a codeword stream line) is malformed."""


class InfeasibleSequenceError(RecipeError):
    """An XDD sequence cannot be realized by per-hop Add/Skip/Replace actions.

    Carries the feasibility report listing every violated constraint.
    """

    def __init__(self, report):
        self.report = report
        n = len(report.violations)
        super().__init__(f"sequence is not feasible ({n} violated constraint(s))")


class UniformityError(RecipeError):
    """Exact enumeration found same-size XOR-sets with unequal probability."""


class ProtocolError(RecipeError):
    """A stateless encoder consulted an entry it must never reach."""


class ConfigurationError(RecipeError):
    """Decoder-side artifacts (table, digest, parameters) do not match."""


class DataCorruptionError(RecipeError):
    """Peeling resolved the same hop to two different values."""


class InternalConsistencyError(RecipeError):
    """A condition the theory guarantees impossible was observed."""
