"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InputError(ValueError):
    """A data file or record violates the documented input schema."""


class ResourceLimitError(RuntimeError):
    """An input is structurally valid but exceeds a documented size guard."""


class ConvergenceError(RuntimeError):
    """An iterative refinement failed to reach its tolerance.

    Raised instead of returning a silently inaccurate value.
    """


class SelfCheckError(ArithmeticError):
    """A computed result violates a bound it provably satisfies, so the
    arithmetic behind it cannot be trusted."""


class ArgminTieError(RuntimeError):
    """The greedy dual-norm chain could not certify a unique argmin.

    An orientation test of the hull construction could not be decided
    from the certified enclosures, and the two points it concerns are
    adjacent on the finished chain.  ``prefix_chain`` holds the chain up
    to the point before them and ``candidates`` the two tied indices
    (the infinity sentinel is represented by ``math.inf``).
    """

    def __init__(self, prefix_chain, candidates):
        self.prefix_chain = tuple(prefix_chain)
        self.candidates = tuple(candidates)
        super().__init__(
            f"ambiguous argmin after chain {self.prefix_chain}: "
            f"candidates {self.candidates} are numerically tied"
        )
