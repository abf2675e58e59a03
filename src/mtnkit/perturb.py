"""Deterministic corpus perturbations for metric calibration.

Selection is exact and reproducible: the tokens of the target class are
numbered in document order and index i is chosen when floor((i+1)*f)
exceeds floor(i*f), so a fraction f marks exactly floor(n*f) of n tokens,
spread evenly, with no randomness involved. The result is re-canonicalized
because relabeling can change sibling order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .canonical import canonicalize_work
from .model import MTNWork, Token, map_tokens


def _selector(fraction: Fraction) -> Callable[[int], bool]:
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be between 0 and 1")

    def chosen(i: int) -> bool:
        return (i + 1) * fraction.numerator // fraction.denominator \
            > i * fraction.numerator // fraction.denominator

    return chosen


def _map_class_tokens(work: MTNWork, label: str, fraction: Fraction,
                      edit: Callable[[Token], Token]) -> tuple[MTNWork, int]:
    chosen = _selector(fraction)
    state = {"seen": 0, "changed": 0}

    def visit_token(tok: Token) -> Token:
        if tok.label != label:
            return tok
        index = state["seen"]
        state["seen"] += 1
        if not chosen(index):
            return tok
        out = edit(tok)
        if out != tok:
            state["changed"] += 1
        return out

    out = canonicalize_work(map_tokens(work, visit_token))
    return out, state["changed"]


def relabel_fraction(work: MTNWork, source: str, target: str,
                     fraction: Fraction) -> tuple[MTNWork, int]:
    """Relabel an exact fraction of one token class to another label."""
    return _map_class_tokens(work, source, fraction,
                             lambda tok: tok._replace(label=target))


def shift_step_fraction(work: MTNWork, label: str, delta: int,
                        fraction: Fraction) -> tuple[MTNWork, int]:
    """Move an exact fraction of one positioned class by delta steps."""

    def edit(tok: Token) -> Token:
        if tok.position.step is None:
            return tok
        position = tok.position._replace(step=tok.position.step + delta)
        return tok._replace(position=position)

    return _map_class_tokens(work, label, fraction, edit)
