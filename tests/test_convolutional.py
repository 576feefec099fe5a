"""Windowed time-invariant codes and their interior reports."""

import pytest

from groupcodes import catalog
from groupcodes import convolutional as conv
from groupcodes import dynamics as dyn
from groupcodes.codes import dual, restriction


def test_window_orders(rate13, repetition6, pairs8):
    assert rate13.code.order() == 4 ** 10
    assert restriction(rate13.code, frozenset({6})).order() == 32
    assert pairs8.code.order() == 8
    assert pairs8.code.invariants() == (2, 4)
    assert repetition6.code.order() == 4


def test_window_single_tap_is_full_space():
    spec = conv.ConvSpec(2, 1, generators=(((1,),),))
    wc = conv.window(spec, 4)
    assert wc.code.order() == 2 ** 4


def test_window_axis_too_short():
    spec = catalog.rate_one_third_z4()
    with pytest.raises(ValueError):
        conv.window(spec, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        conv.ConvSpec(4, 3, generators=(((0, 0, 0),),))
    with pytest.raises(ValueError):
        conv.ConvSpec(1, 3)
    with pytest.raises(ValueError):
        conv.ConvSpec(4, 2, generators=(((1, 0, 0),),))  # width mismatch


def test_interior_shift_invariance(rate13, pairs8):
    assert conv.interior_shift_invariance_check(rate13, width=1)
    assert conv.interior_shift_invariance_check(rate13, width=2)
    assert conv.interior_shift_invariance_check(pairs8, width=2)


def test_central_report_values():
    rep = conv.central_report(catalog.rate_one_third_z4(), 12, margin=3)
    assert rep.state == (2, 4)
    assert rep.controller_memory == 2
    assert rep.observer_memory == 1
    assert rep.controller_granules[1] == (2,) and rep.controller_granules[2] == (2,)
    assert rep.observer_granules[0] == (2,) and rep.observer_granules[1] == (2, 4)
    assert rep.input_group_order == 4
    assert rep.output_group_order == 32
    assert rep.syndrome_group == (4, 4)


def test_central_report_dual_values(rate13):
    rep = conv.interior_report(dual(rate13.code), 3)
    assert rep.state == (2, 4)
    assert rep.controller_memory == 1
    assert rep.observer_memory == 2
    assert rep.observer_granules[1] == (2,) and rep.observer_granules[2] == (2,)


def test_central_report_repetition():
    rep = conv.central_report(catalog.repetition_spec(4), 6, margin=2)
    assert rep.state == (4,)
    assert rep.controller_memory is None
    assert rep.observer_memory == 1
    assert rep.input_group_order == 1
    assert rep.syndrome_group == (4,)


def test_stability_across_axis_lengths():
    spec = catalog.rate_one_third_z4()
    assert conv.central_report(spec, 12, margin=3) == conv.central_report(spec, 14, margin=3)
    pairs = catalog.periodic_pairs_z4()
    assert conv.central_report(pairs, 8, margin=2) == conv.central_report(pairs, 10, margin=2)


def test_stability_at_long_axes():
    # the interior numbers do not depend on the axis length once it is long
    spec = catalog.rate_one_third_z4()
    assert conv.central_report(spec, 24, margin=3) == conv.central_report(spec, 32, margin=3)


def test_orthogonality_check_spec_values():
    spec = catalog.rate_one_third_z4()
    taps = catalog.rate_one_third_z4_dual_taps()
    assert conv.orthogonality_check(spec, taps)
    assert conv.orthogonality_check(spec, taps[:1])
    assert not conv.orthogonality_check(spec, (spec.generators[0],))
    # a tap family that is also given as a pattern is still checked as taps
    g = ((1,), (1,))
    assert conv.orthogonality_check(conv.ConvSpec(2, 1, patterns=(g,)), (g,))
    assert not conv.orthogonality_check(conv.ConvSpec(2, 1, generators=(g,)), (g,))
    assert not conv.orthogonality_check(
        conv.ConvSpec(2, 1, generators=(g,), patterns=(g,)), (g,))


def test_pairs_printed_dual_taps_discrepancy():
    # the (1, 0, 1) family often quoted for the period-2 pair behavior fails
    # the pairing against the all-ones word; the corrected (1, 0, 3) passes
    spec = catalog.periodic_pairs_z4()
    assert not conv.orthogonality_check(spec, (((1,), (0,), (1,)),))
    assert conv.orthogonality_check(spec, (((2,), (2,)), ((1,), (0,), (3,))))


def test_dual_window_interior_consistency(rate13):
    # the interior of the dual of the window equals the interior of the
    # window of the dual tap family
    dual_spec = conv.ConvSpec(4, 3, generators=catalog.rate_one_third_z4_dual_taps())
    dual_win = conv.window(dual_spec, 12)
    lhs = dual(rate13.code)
    for a in range(3, 7):
        keep = rate13.code.layout.interval(a, a + 2)
        assert restriction(lhs, keep).carrier == restriction(dual_win.code, keep).carrier


def test_autonomous_interior_inputs(pairs8, repetition6):
    for wc in (pairs8, repetition6):
        n = wc.axis_len
        for k in range(wc.margin, n - wc.margin):
            assert dyn.first_output_group(wc.code, k).is_trivial()
