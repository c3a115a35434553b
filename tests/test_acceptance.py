"""Full-scale acceptance run: one test per criterion, one report line each.

Criteria 6 and 7 are thresholds read off published figure panels and are
soft: the measured numbers are reported (see the captured output and the
summary printed by `cavity-bell selftest`) but a miss does not fail the
suite.  Everything else asserts.
"""
import pytest

from cavity_bell import acceptance


@pytest.fixture(scope="module")
def crit1():
    return acceptance.criterion_1_singlet_conservation()


@pytest.fixture(scope="module")
def crit2():
    return acceptance.criterion_2_oracle_equivalence()


def _report(result):
    print(result.line())
    return result


def test_criterion_1_singlet_conservation(crit1):
    result, _ = crit1
    assert _report(result).passed, result.detail


def test_criterion_2_oracle_equivalence(crit2):
    result, _ = crit2
    assert _report(result).passed, result.detail


def test_criterion_3_bounds(crit1, crit2):
    result = acceptance.criterion_3_bounds(crit1[1] + crit2[1])
    assert _report(result).passed, result.detail


def test_criterion_4_initial_values():
    result = acceptance.criterion_4_initial_values()
    assert _report(result).passed, result.detail
    assert "(64-point grid" in result.detail


def test_criterion_5_vacuum_rabi():
    result = acceptance.criterion_5_vacuum_rabi()
    assert _report(result).passed, result.detail


def test_criterion_6_decoherence_soft():
    result = _report(acceptance.criterion_6_decoherence())
    assert not result.hard
    assert "fraction" in result.detail


def test_criterion_7_revival_soft():
    result = _report(acceptance.criterion_7_revival())
    assert not result.hard
    assert "measured revival peak" in result.detail


def test_criterion_8_brute_agreement():
    result = acceptance.criterion_8_brute_agreement()
    assert _report(result).passed, result.detail


def test_criterion_9_conservation():
    result = acceptance.criterion_9_conservation()
    assert _report(result).passed, result.detail
