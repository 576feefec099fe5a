"""Small library of classic fixture codes.

These are the standard worked examples of the dual-code literature over Z_4:

* the repetition behavior (uncontrollable, 1-observable; its dual is the
  zero-sum code);
* the width-3 rate-1/3 code generated by shifts of (100, 010, 002),
  2-controllable and 1-observable, with an order-8 state space;
* the autonomous period-2 "pair" behavior whose words repeat one of the 8
  pairs {00, 22, 02, 20, 11, 33, 13, 31}.
"""

from __future__ import annotations

from .convolutional import ConvSpec, WindowedCode, window


def repetition_spec(modulus: int = 4, width: int = 1) -> ConvSpec:
    """All constant sequences over (Z_M)^width, as full-axis patterns."""
    patterns = tuple(
        (tuple(1 if i == j else 0 for i in range(width)),)
        for j in range(width))
    return ConvSpec(modulus, width, patterns=patterns, name="repetition")


def rate_one_third_z4() -> ConvSpec:
    """Width-3 code over Z4 generated by shifts of (100, 010, 002)."""
    return ConvSpec(4, 3, generators=(((1, 0, 0), (0, 1, 0), (0, 0, 2)),),
                    name="rate-1/3-z4")


def rate_one_third_z4_dual_taps() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Tap families orthogonal to every shift of the rate-1/3 generator."""
    return (((1, 0, 0), (0, 3, 0)), ((0, 2, 0), (0, 0, 1)))


def periodic_pairs_z4() -> ConvSpec:
    """Autonomous width-1 code over Z4: repetitions of the 8 all-even/all-odd
    period-2 pairs; isomorphic to Z4 x Z2."""
    return ConvSpec(4, 1, patterns=(((1,), (1,)), ((0,), (2,))),
                    name="periodic-pairs-z4")


def repetition_window(axis_len: int = 6, modulus: int = 4) -> WindowedCode:
    return window(repetition_spec(modulus), axis_len, margin=2)


def rate_one_third_window(axis_len: int = 12) -> WindowedCode:
    return window(rate_one_third_z4(), axis_len, margin=3)


def periodic_pairs_window(axis_len: int = 8) -> WindowedCode:
    return window(periodic_pairs_z4(), axis_len, margin=2)

