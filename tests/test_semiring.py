"""Semiring axioms and array-level semantics."""

import numpy as np
import pytest

from repro.semiring import (
    Boolean,
    CountingSemiring,
    MaxPlus,
    MinPlus,
    RealField,
    SemiringError,
    available_semirings,
    get_semiring,
)

ALL = [MinPlus(), MaxPlus(), Boolean(), RealField(), CountingSemiring()]


def _elements(sr, rng, shape=()):
    if sr.name == "boolean":
        return rng.random(shape) < 0.5
    if sr.name == "counting":
        return rng.integers(0, 5, size=shape).astype(np.int64)
    vals = rng.uniform(-3, 3, size=shape)
    if sr.name in ("tropical", "maxplus"):
        mask = rng.random(shape) < 0.2
        vals = np.where(mask, sr.zero, vals)
    return vals.astype(sr.dtype)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
class TestAxioms:
    def test_add_identity(self, sr):
        rng = np.random.default_rng(0)
        a = _elements(sr, rng, (8,))
        z = np.full(8, sr.zero, dtype=sr.dtype)
        np.testing.assert_array_equal(sr.add(a, z), a)

    def test_mul_identity(self, sr):
        rng = np.random.default_rng(1)
        a = _elements(sr, rng, (8,))
        one = np.full(8, sr.one, dtype=sr.dtype)
        np.testing.assert_array_equal(sr.mul(a, one), a)

    def test_mul_annihilator(self, sr):
        rng = np.random.default_rng(2)
        a = _elements(sr, rng, (8,))
        z = np.full(8, sr.zero, dtype=sr.dtype)
        np.testing.assert_array_equal(sr.mul(a, z), z)

    def test_add_commutative_associative(self, sr):
        rng = np.random.default_rng(3)
        a, b, c = (_elements(sr, rng, (16,)) for _ in range(3))
        np.testing.assert_array_equal(sr.add(a, b), sr.add(b, a))
        np.testing.assert_array_equal(
            sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c))
        )

    def test_distributivity(self, sr):
        rng = np.random.default_rng(4)
        a, b, c = (_elements(sr, rng, (16,)) for _ in range(3))
        lhs = sr.mul(a, sr.add(b, c))
        rhs = sr.add(sr.mul(a, b), sr.mul(a, c))
        if sr.dtype.kind == "f":
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        else:
            np.testing.assert_array_equal(lhs, rhs)

    def test_add_inplace_matches(self, sr):
        rng = np.random.default_rng(5)
        a = _elements(sr, rng, (8,))
        b = _elements(sr, rng, (8,))
        expect = sr.add(a, b)
        out = a.copy()
        sr.add_inplace(out, b)
        np.testing.assert_array_equal(out, expect)

class TestTropicalSpecifics:
    def test_inf_plus_neg_inf_is_zero(self):
        sr = MinPlus()
        out = sr.mul(np.array([np.inf]), np.array([-np.inf]))
        assert out[0] == np.inf  # the semiring zero annihilates

    def test_maxplus_dual(self):
        sr = MaxPlus()
        out = sr.mul(np.array([-np.inf]), np.array([np.inf]))
        assert out[0] == -np.inf


class TestRegistry:
    def test_lookup_by_name_and_alias(self):
        assert get_semiring("tropical").name == "tropical"
        assert get_semiring("minplus").name == "tropical"
        assert get_semiring("bool").name == "boolean"

    def test_passthrough_instance(self):
        sr = MinPlus()
        assert get_semiring(sr) is sr

    def test_unknown_raises(self):
        with pytest.raises(SemiringError):
            get_semiring("nope")

    def test_available_contains_all(self):
        names = available_semirings()
        for expect in ("tropical", "boolean", "real", "counting", "maxplus"):
            assert expect in names
