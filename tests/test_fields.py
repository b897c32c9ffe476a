import numpy as np
import pytest

from nsl import (
    EnergySpec,
    ScalarField,
    SpaceSpec,
    build_space,
    cheeger_surrogate,
    gagliardo_p,
    hajlasz_minimal,
)
from nsl.fields import as_values

CALLERS = {
    "hajlasz_minimal": lambda sp, u: hajlasz_minimal(sp, u, 2),
    "cheeger_surrogate": lambda sp, u: cheeger_surrogate(sp, u, 2),
    "gagliardo_p": lambda sp, u: gagliardo_p(sp, u, EnergySpec(p=2, s=0.5)),
}


@pytest.fixture
def circle16():
    return build_space(SpaceSpec("circle", n=16))


class TestRawFieldValidation:
    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_point(self, circle16, caller, bad):
        u = np.sin(circle16.coords[:, 0])
        u[3] = bad
        with pytest.raises(ValueError, match=r"non-finite field value at point 3: "):
            CALLERS[caller](circle16, u)

    @pytest.mark.parametrize("caller", CALLERS)
    def test_two_dimensional_array_names_its_shape(self, circle16, caller):
        u = np.sin(circle16.coords[:, 0]).reshape(16, 1)
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(16, 1\)"):
            CALLERS[caller](circle16, u)

    @pytest.mark.parametrize("caller", CALLERS)
    def test_length_mismatch(self, circle16, caller):
        with pytest.raises(ValueError, match="field has 15 values for a space of 16 points"):
            CALLERS[caller](circle16, np.zeros(15))

    def test_raw_array_is_checked_but_not_frozen(self):
        u = np.arange(4.0)
        vals = as_values(u, 4)
        assert np.array_equal(vals, u)
        assert u.flags.writeable
        assert np.array_equal(as_values([0, 1, 2, 3], 4), u)


class TestScalarFieldValues:
    def test_caller_array_stays_writeable_and_apart(self):
        x = np.arange(4.0)
        field = ScalarField(x)
        assert x.flags.writeable
        assert not field.values.flags.writeable
        x[0] = 9.0
        assert np.array_equal(field.values, [0.0, 1.0, 2.0, 3.0])

    def test_other_dtypes_and_layouts_are_copied_too(self):
        x = np.arange(8, dtype=np.int32)[::2]
        field = ScalarField(x)
        assert field.values.dtype == np.float64 and field.values.flags.c_contiguous
        assert np.array_equal(field.values, [0.0, 2.0, 4.0, 6.0])
