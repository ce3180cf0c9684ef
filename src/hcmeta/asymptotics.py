"""Exact lambda -> infinity exponent arithmetic.

An :class:`AsymptoticExponent` (p, q) denotes a quantity of order
lambda^(p + q*alpha) under the scaling lambda_bar = lambda^(1+alpha).
Comparisons are exact rational arithmetic in alpha; ties are surfaced,
never silently broken.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["AsymptoticExponent", "OrderTie", "parse_fraction"]


class OrderTie(ValueError):
    """Two quantities with distinct (p, q) share the value p + q*alpha."""


def parse_fraction(text: str | Fraction | int) -> Fraction:
    """Parse an alpha given as '7/10', '0.7' or a Fraction; must lie in (0,1)."""
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"alpha {text!r} has a zero denominator") from None
    if not (0 < frac < 1):
        raise ValueError(f"alpha must lie in (0,1), got {frac}")
    return frac


@dataclass(frozen=True, order=False)
class AsymptoticExponent:
    """Order lambda^(p + q*alpha); multiplication adds exponents."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))

    @staticmethod
    def from_powers(lam_power, lam_bar_power) -> "AsymptoticExponent":
        """Exponent of lambda^a * lambda_bar^b with lambda_bar = lambda^(1+alpha)."""
        a, b = Fraction(lam_power), Fraction(lam_bar_power)
        return AsymptoticExponent(a + b, b)

    def value(self, alpha: Fraction) -> Fraction:
        return self.p + self.q * alpha

    def __mul__(self, other: "AsymptoticExponent") -> "AsymptoticExponent":
        return AsymptoticExponent(self.p + other.p, self.q + other.q)

    def __truediv__(self, other: "AsymptoticExponent") -> "AsymptoticExponent":
        return AsymptoticExponent(self.p - other.p, self.q - other.q)

    def compare(self, other: "AsymptoticExponent", alpha: Fraction) -> int:
        """-1, 0, +1 in the p + q*alpha order.

        Raises :class:`OrderTie` when the values coincide but (p, q) differ:
        the tie is a genericity failure of alpha, not a genuine equality.
        """
        va, vb = self.value(alpha), other.value(alpha)
        if va == vb:
            if (self.p, self.q) != (other.p, other.q):
                raise OrderTie(
                    f"order tie at alpha={alpha}: {self.as_tuple()} vs {other.as_tuple()}")
            return 0
        return -1 if va < vb else 1

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.p, self.q)

    def as_json(self) -> list[str]:
        return [str(self.p), str(self.q)]

    def __repr__(self) -> str:
        return f"lambda^({self.p}+{self.q}a)"
