"""Exception hierarchy shared by all symdex modules.

Stalls and not-found outcomes are legitimate mathematical determinations,
not bugs; they carry whatever partial data was produced so callers can
report it.
"""

from __future__ import annotations


class SymdexError(Exception):
    """Base class for all library errors."""


class InvalidInput(SymdexError):
    """Malformed value, schema violation or unusable parameter."""


class WitnessNotMember(InvalidInput):
    """A witness point failed the membership test it was required to pass."""


class BudgetExceeded(SymdexError):
    """An enumeration or combination budget was exhausted."""


class DepthExceeded(BudgetExceeded):
    """A bounded membership search ran past its node budget."""


class UnboundedDiameter(SymdexError):
    """The set has infinite diameter under the requested norm."""


class Inconclusive(SymdexError):
    """A certified interval straddles the decision threshold."""


class ExtractionStalled(SymdexError):
    """Sequence extraction found no usable direction/functional at a step.

    Expected on sets whose indexes collapse; carries the partial transcript.
    """

    def __init__(self, step: int, partial=None, reason: str = ""):
        self.step = step
        self.partial = partial
        self.reason = reason
        msg = f"extraction stalled at step {step}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class TreeStalled(SymdexError):
    """Tree growth found no direction of the required norm at a node."""

    def __init__(self, node: int, partial=None):
        self.node = node
        self.partial = partial
        super().__init__(f"tree growth stalled at node {node}")


class SequenceStalled(SymdexError):
    """One-sided sequence growth found no admissible next vector."""

    def __init__(self, step: int, partial=None):
        self.step = step
        self.partial = partial
        super().__init__(f"one-sided sequence stalled at step {step}")


class NotFound(SymdexError):
    """A search exhausted its strategy without meeting the target ratio."""

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class NotAchievable(SymdexError):
    """No witness set within budget certifies the requested tail bound.

    Carries the best attempt and, when available, a lower-bound
    certificate explaining why the bound cannot hold.
    """

    def __init__(self, message: str, best=None, lower_certificate=None):
        self.best = best
        self.lower_certificate = lower_certificate
        super().__init__(message)
