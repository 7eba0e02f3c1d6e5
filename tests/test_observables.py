"""Tests for monomial dictionaries and the coordinate readout."""

import re
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mredmd.errors import ConfigurationError
from mredmd.observables import (
    Dictionary,
    check_dictionary_size,
    coordinate_readout,
    monomial_dictionary,
)


class TestMonomialDictionary:
    def test_univariate_degree_one(self):
        d = monomial_dictionary(1, 1)
        assert d.exponents == ((0,), (1,))

    def test_degree_zero(self):
        d = monomial_dictionary(2, 0)
        assert d.exponents == ((0, 0),)

    def test_three_dims_degree_two_size(self):
        assert monomial_dictionary(3, 2).size == 10  # C(5, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("degree", range(5))
    def test_size_formula(self, n, degree):
        assert monomial_dictionary(n, degree).size == comb(n + degree, degree)

    def test_graded_lex_order(self):
        d = monomial_dictionary(3, 2)
        assert d.exponents[:4] == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        degrees = [sum(a) for a in d.exponents]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize(
        "n, degree, constant",
        [(n, d, c) for n in range(1, 6) for d in range(7) for c in (True, False) if d or c],
    )
    def test_order_is_the_sorted_product(self, n, degree, constant):
        # every tuple of the box, filtered and sorted by (degree, descending tuple)
        alphas = [
            alpha
            for alpha in product(range(degree + 1), repeat=n)
            if sum(alpha) <= degree and (constant or sum(alpha) > 0)
        ]
        alphas.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
        assert monomial_dictionary(n, degree, constant).exponents == tuple(alphas)

    def test_eight_dims_degree_eight(self):
        # 9**8 tuples of a box; the dictionary keeps C(16, 8) of them
        assert monomial_dictionary(8, 8).size == 12870

    def test_exclude_constant(self):
        d = monomial_dictionary(2, 1, include_constant=False)
        assert d.exponents == ((1, 0), (0, 1))

    def test_no_observable_left(self):
        with pytest.raises(ConfigurationError, match="no observable"):
            monomial_dictionary(3, 0, include_constant=False)

    def test_manifest_one_line_per_monomial(self):
        d = monomial_dictionary(2, 1)
        assert d.manifest() == "0 0\n1 0\n0 1\n"

    @pytest.mark.parametrize(
        "n, degree, name",
        [
            (3, 2.5, "degree"),
            (3, True, "degree"),
            (3, -1, "degree"),
            (3, "2", "degree"),
            (2.0, 2, "n"),
            ("3", 2, "n"),
            (0, 2, "n"),
            (True, 2, "n"),
        ],
    )
    def test_bad_sizes_rejected(self, n, degree, name):
        low = 1 if name == "n" else 0
        value = n if name == "n" else degree
        message = f"{name} must be an integer >= {low}, got {value!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            monomial_dictionary(n, degree)

    @pytest.mark.parametrize("degree", [2000, 100000])
    @pytest.mark.parametrize("constant", [True, False])
    def test_oversized_dictionary_refused_before_enumeration(self, degree, constant):
        # no address space holds an (N, N) float64 matrix of these N
        size = comb(3 + degree, 3) - (not constant)
        message = (
            f"cannot allocate the Koopman matrix: degree={degree} gives N={size} "
            f"observables, and an (N, N) matrix requests {size * size * 8 / 2**30:.3g} GiB"
        )
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            monomial_dictionary(3, degree, constant)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            check_dictionary_size(3, degree, constant)

    def test_numpy_sizes_accepted(self):
        assert monomial_dictionary(np.int64(3), np.int32(2)) == monomial_dictionary(3, 2)


class TestEvaluate:
    def test_constant_slot(self):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert d.evaluate_columns(rng.normal(size=(3, 1)))[0, 0] == 1.0

    def test_hand_evaluation(self):
        d = monomial_dictionary(3, 2)
        vals = d.evaluate_columns(np.array([1.0, 2.0, 3.0])[:, None])[:, 0]
        slot = d.exponents.index((0, 1, 1))  # x2 * x3
        assert vals[slot] == pytest.approx(6.0)

    def test_at_origin(self):
        d = monomial_dictionary(3, 2)
        vals = d.evaluate_columns(np.zeros(3)[:, None])[:, 0]
        assert vals[0] == 1.0
        np.testing.assert_array_equal(vals[1:], np.zeros(d.size - 1))

    def test_multiplicative_consistency(self):
        d = monomial_dictionary(3, 4)
        rng = np.random.default_rng(1)
        index = {a: i for i, a in enumerate(d.exponents)}
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            vals = d.evaluate_columns(x[:, None])[:, 0]
            for a in d.exponents:
                for b in d.exponents:
                    c = tuple(ai + bi for ai, bi in zip(a, b))
                    if c in index:
                        assert vals[index[c]] == pytest.approx(
                            vals[index[a]] * vals[index[b]], rel=1e-12, abs=1e-12
                        )

    def test_columns_match_single(self):
        d = monomial_dictionary(3, 2)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(3, 7))
        lifted = d.evaluate_columns(states)
        assert lifted.shape == (10, 7)
        for k in range(7):
            alone = d.evaluate_columns(states[:, k, None])
            np.testing.assert_array_equal(lifted[:, k], alone[:, 0])

    def test_empty_dictionary_lifts_to_no_rows(self):
        assert Dictionary(dim=2, exponents=()).evaluate_columns(np.ones((2, 3))).shape == (0, 3)

    def test_dimension_check(self):
        d = monomial_dictionary(3, 2)
        with pytest.raises(ConfigurationError):
            d.evaluate_columns(np.zeros((2, 1)))


#: Values on which a power or a product is easy to get wrong: signed zeros,
#: subnormals, infinities, nan, and magnitudes whose powers overflow or
#: underflow.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan, 1e200, -1e-200)

#: Batch sizes on both sides of the 5,461 columns at which NumPy's ``pow``
#: switched loops for the old lift (degree 2, n = 3).
BATCHES = (1, 5461, 5462, 20000)


def ordered_product(exponents, states):
    """Phi of each column of ``states`` written out: each power a chain of
    multiplications from 1, each monomial the product of those powers in
    component order, one exponent vector at a time."""
    out = np.empty((len(exponents), states.shape[1]))
    for j, alpha in enumerate(exponents):
        value = np.ones(states.shape[1])
        for x, a in zip(states, alpha):
            power = np.ones(states.shape[1])
            for _ in range(a):
                power = power * x
            value = value * power
        out[j] = value
    return out


def assert_same_bits(a, b):
    """Bit for bit, except that any nan matches any nan: which payload a
    product of two nans keeps is the compiler's choice."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    np.testing.assert_array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


@st.composite
def lift_cases(draw):
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 5))
    constant = draw(st.booleans()) or degree == 0
    k = draw(st.sampled_from(BATCHES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.uniform(-3.0, 3.0, size=(n, k))
    for _ in range(draw(st.integers(0, 12))):
        i, col = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
        states[i, col] = draw(st.sampled_from(SPECIAL))
    bufsize = draw(st.sampled_from([8192, 1 << 16]))
    return monomial_dictionary(n, degree, constant), states, bufsize


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lift_cases())
def test_lift_is_the_ordered_product_bit_for_bit(case):
    d, states, bufsize = case
    old = np.setbufsize(bufsize)
    try:
        with np.errstate(all="ignore"):
            lifted = d.evaluate_columns(states)
            expected = ordered_product(d.exponents, states)
            first = d.evaluate_columns(states[:, :1])[:, 0]
            last = d.evaluate_columns(states[:, -1:])[:, 0]
    finally:
        np.setbufsize(old)
    assert_same_bits(lifted, expected)
    assert_same_bits(first, lifted[:, 0])
    assert_same_bits(last, lifted[:, -1])


class TestCoordinateReadout:
    def test_univariate(self):
        c = coordinate_readout(monomial_dictionary(1, 1))
        np.testing.assert_array_equal(c, [[0.0, 1.0]])

    def test_structure(self):
        c = coordinate_readout(monomial_dictionary(3, 2))
        assert c.shape == (3, 10)
        assert np.count_nonzero(c) == 3
        np.testing.assert_array_equal(c.sum(axis=1), np.ones(3))

    def test_roundtrip_property(self):
        d = monomial_dictionary(3, 2)
        c = coordinate_readout(d)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=3)
            np.testing.assert_array_equal(c @ d.evaluate_columns(x[:, None])[:, 0], x)

    def test_missing_coordinates(self):
        with pytest.raises(ConfigurationError):
            coordinate_readout(monomial_dictionary(2, 0))
