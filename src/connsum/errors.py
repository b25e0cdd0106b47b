"""Exception hierarchy shared by all modules."""


class ConnsumError(Exception):
    """Base class for all library errors."""


class UndefinedArithmetic(ConnsumError, ArithmeticError):
    """Raised on projective-arithmetic indeterminate forms (inf+inf, 0*inf, 0/0)."""


class DomainError(ConnsumError, ValueError):
    """An input value lies outside the domain an operation requires."""


class NotPeelable(ConnsumError):
    """The pair cannot be written as an arrow image (empty, or trailing (0, 1) letter)."""


class EmptyArrowOnInfinity(ConnsumError):
    """An infinity arrow cannot be applied to the empty pair."""


class NoEmptyComponent(ConnsumError):
    """drop_empty_component needs an empty component and arity > 1."""


class NotTransportableStep(ConnsumError):
    """A single transport rewrite's preconditions fail; message names the bullet."""


class NotTransportable(ConnsumError):
    """No receiving-slot choice satisfies the transportability condition."""


class StepPreconditionFailed(ConnsumError):
    """Internal consistency error: a step failed after transportability was confirmed."""


class DualConditionViolated(ConnsumError):
    """The pair does not satisfy the dual condition."""


class ZeroVariable(ConnsumError, ValueError):
    """A variable that must be nonzero is zero."""


class DivergentInput(ConnsumError):
    """The requested series does not converge absolutely."""


class GuardViolation(ConnsumError):
    """A converted or constructed term violates its kind's convergence invariant."""


class AlphabetViolation(ConnsumError, ValueError):
    """A word letter's variable lies outside the admissible letter alphabet."""


class NotA0(ConnsumError):
    """The word does not belong to the convergent subalgebra."""


class TruncationTooSmall(ConnsumError, ValueError):
    """Series truncation order must be a non-negative integer."""


class HypothesisViolated(ConnsumError, ValueError):
    """Finite-identity parameters violate the identity's hypotheses."""


class PreconditionViolated(ConnsumError, ValueError):
    """A named precondition inequality fails; message names it."""


class BudgetExceeded(ConnsumError):
    """A path that can grow exponentially with its input passed its size cap;
    the message names the cap."""


class NotConverged(ConnsumError):
    """A numeric evaluation's tail estimate exceeds the requested tolerance."""
