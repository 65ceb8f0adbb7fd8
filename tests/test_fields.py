import math

import numpy as np
import pytest

from anisodg.fields import (CoefficientField, FieldFileError, Harmonic,
                            MagneticField, check_positive,
                            iota_profile, load_field, parse_field)
from anisodg.geometry import FieldDirection


def test_constant_field():
    f = CoefficientField.constant(1.0)
    assert f.eval(2.3, -1.0) == 1.0
    assert f.is_constant


def test_single_harmonic_at_origin():
    f = CoefficientField(1.0, (Harmonic(1, 1, 0.3, 0.0),))
    assert f.eval(0.0, 0.0) == pytest.approx(1.3)


def test_harmonic_direct_evaluation():
    f = CoefficientField(1.0, (Harmonic(2, -1, 0.3, 0.0),))
    expect = 1.0 + 0.3 * math.cos(3 * math.pi / 4)
    assert f.eval(math.pi / 2, math.pi / 4) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.787868, abs=1e-6)


def test_periodicity():
    rng = np.random.default_rng(3)
    f = CoefficientField(2.0, (Harmonic(1, 0, 0.2, 0.1), Harmonic(2, -3, 0.0, 0.4)))
    x, y = rng.uniform(0, 2 * math.pi, size=(2, 20))
    base = f.eval(x, y)
    assert np.max(np.abs(f.eval(x + 2 * math.pi, y) - base)) < 1e-13
    assert np.max(np.abs(f.eval(x, y + 2 * math.pi) - base)) < 1e-13


def test_constant_fast_path_matches_harmonic_evaluator():
    fast = CoefficientField(2.5, (Harmonic(1, 1, 0.0, 0.0),))
    slow = CoefficientField(2.5, (Harmonic(1, 1, 1e-300, 0.0),))
    assert fast.is_constant
    x, y = 1.234, 5.0
    assert fast.eval(x, y) == pytest.approx(float(slow.eval(x, y)), abs=1e-200)


def test_parse_field_formats(tmp_path):
    path = tmp_path / "const.fld"
    path.write_text("mean 1.0\n")
    f = load_field(path)
    assert f.mean == 1.0 and not f.harmonics

    path.write_text("# a comment\nmean 1.0\n1 0 0.3 0.0\n")
    f = load_field(path)
    assert f.harmonics == (Harmonic(1, 0, 0.3, 0.0),)
    assert f.eval(0.0, 1.23) == pytest.approx(1.3)


def test_parse_error_reports_line():
    with pytest.raises(FieldFileError, match=":3:"):
        parse_field("# hi\nmean 1.0\n1 zero 0.3 0.0\n", name="bad.fld")
    with pytest.raises(FieldFileError, match="mean"):
        parse_field("1 0 0.3 0.0\n")
    with pytest.raises(FieldFileError, match="no 'mean'"):
        parse_field("# only comments\n")


def test_positivity_violation_reports_location(tmp_path):
    path = tmp_path / "neg.fld"
    path.write_text("mean 0.1\n1 0 -1.0 0.0\n")  # dips to -0.9 near x=0
    with pytest.raises(FieldFileError, match="min sampled value"):
        load_field(path)
    # direct check returns the minimum for a valid field, and refuses NaN
    assert check_positive(CoefficientField.constant(2.0)) == 2.0
    with pytest.raises(FieldFileError, match="min sampled value nan"):
        check_positive(CoefficientField.constant(math.nan))


def test_iota_profile_endpoints():
    assert iota_profile(0.0).b1 == pytest.approx(0.85931)
    assert iota_profile(1.0).b1 == pytest.approx(0.93972)
    assert iota_profile(0.0).b2 == 1.0
    # midpoint of the linear profile
    assert iota_profile(0.5).b1 == pytest.approx(0.899515, abs=1e-12)
    with pytest.raises(ValueError):
        iota_profile(1.5)
    with pytest.raises(ValueError):
        iota_profile(-0.1)


def test_magnetic_field_tangency_factorizes():
    # B = beta * b, so b.n = 0 implies B.n = 0 for any beta
    beta = CoefficientField(1.0, (Harmonic(1, 1, 0.5, 0.2),))
    field = MagneticField(b=FieldDirection(2.0, 1.0), beta=beta)
    n = np.array([-1.0, 2.0]) / math.sqrt(5.0)  # perpendicular to b
    x, y = 0.7, 1.9
    bx = beta.eval(x, y) * field.b.b1
    by = beta.eval(x, y) * field.b.b2
    assert abs(bx * n[0] + by * n[1]) < 1e-15
