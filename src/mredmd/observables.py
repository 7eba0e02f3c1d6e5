"""Observable dictionaries: monomial bases with graded-lexicographic ordering
and the coordinate readout used to map lifted predictions back to states.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb

import numpy as np

from .errors import ConfigurationError, check_integer


@dataclass(frozen=True)
class Dictionary:
    """Ordered set of monomial observables on R^dim.

    ``exponents[j]`` is the exponent vector alpha of the j-th observable
    ``x -> prod_i x_i**alpha_i``. The ordering is graded lexicographic
    (ascending total degree, then descending exponent tuple), which fixes
    matrix layouts and file output byte-for-byte.
    """

    dim: int
    exponents: tuple

    @property
    def size(self):
        return len(self.exponents)

    def __len__(self):
        return len(self.exponents)

    @cached_property
    def _power_rows(self):
        """The highest exponent, and for each component ``i`` the row of the
        power table that it contributes to each monomial (``x_i**a`` is row
        ``a * dim + i``)."""
        e = np.array(self.exponents, dtype=np.intp).reshape(self.size, self.dim)
        rows = e * self.dim + np.arange(self.dim)
        return int(e.max(initial=0)), tuple(np.ascontiguousarray(r) for r in rows.T)

    def _lift(self, states):
        """Phi of each column of ``states`` (dim, K): x**0 = 1, x**1 = x and
        x**a = x**(a-1) * x, and each monomial the product of its
        components' powers in component order. Every entry is the same chain
        of IEEE multiplications whatever K, so its bits depend on its own
        column alone."""
        top, rows = self._power_rows
        powers = np.empty((top + 1, *states.shape))
        powers[0] = 1.0
        if top:
            powers[1] = states
        for a in range(2, top + 1):
            np.multiply(powers[a - 1], states, out=powers[a])
        table = powers.reshape(-1, states.shape[1])
        out = table.take(rows[0], axis=0)
        for index in rows[1:]:
            out *= table.take(index, axis=0)
        return out

    def evaluate(self, x):
        """Lift a single state: returns Phi(x), shape (size,); the one-column
        case of :meth:`evaluate_columns`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigurationError(
                f"state has shape {x.shape}, dictionary expects ({self.dim},)"
            )
        return self._lift(x[:, None])[:, 0]

    def evaluate_columns(self, states):
        """Lift a column-stacked batch: (dim, K) -> (size, K)."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.dim:
            raise ConfigurationError(
                f"expected shape ({self.dim}, K), got {states.shape}"
            )
        return self._lift(states)

    def coordinate_slot(self, i):
        """Index of the degree-1 monomial for coordinate ``i``, or None."""
        target = tuple(1 if j == i else 0 for j in range(self.dim))
        try:
            return self.exponents.index(target)
        except ValueError:
            return None

    def manifest(self):
        """Text description, one exponent vector per line."""
        return "\n".join(" ".join(str(a) for a in alpha) for alpha in self.exponents) + "\n"


def monomial_dictionary(n, degree, include_constant=True):
    """All monomials on R^n with total degree <= ``degree``, graded-lex order.

    Size is C(n + degree, degree) when the constant is included. ``n`` is
    an integer >= 1 and ``degree`` one >= 0 (bools refused, NumPy integers
    accepted); anything else raises a :class:`ConfigurationError` naming it.
    """
    n = check_integer(n, "n", 1)
    degree = check_integer(degree, "degree", 0)
    if degree == 0 and not include_constant:
        raise ConfigurationError("degree 0 without the constant leaves no observable")
    alphas = [
        alpha
        for alpha in product(range(degree + 1), repeat=n)
        if sum(alpha) <= degree and (include_constant or sum(alpha) > 0)
    ]
    alphas.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
    d = Dictionary(dim=n, exponents=tuple(alphas))
    if include_constant:
        assert d.size == comb(n + degree, degree)
    return d


def coordinate_readout(dictionary):
    """Selector matrix C (n x N) with C @ Phi(x) = x exactly.

    Raises
    ------
    ConfigurationError
        If any coordinate function x_i is missing from the dictionary.
    """
    c = np.zeros((dictionary.dim, dictionary.size))
    for i in range(dictionary.dim):
        slot = dictionary.coordinate_slot(i)
        if slot is None:
            raise ConfigurationError(
                f"dictionary has no coordinate observable for component {i}; "
                "degree >= 1 is required for state readout"
            )
        c[i, slot] = 1.0
    return c
