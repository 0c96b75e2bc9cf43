"""Small shared value type: a function paired with its derivative."""

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class FunctionPair:
    """A function together with its analytic derivative.

    First-order ladder operators act on (value, derivative) pairs; callers
    supply analytic derivatives where exactness matters.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
