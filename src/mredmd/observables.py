"""Observable dictionaries: monomial bases with graded-lexicographic ordering
and the coordinate readout used to map lifted predictions back to states.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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

    @cached_property
    def _power_rows(self):
        """The highest exponent, and for each component ``i`` the row of the
        power table that it contributes to each monomial (``x_i**a`` is row
        ``a * dim + i``)."""
        e = np.array(self.exponents, dtype=np.intp).reshape(self.size, self.dim)
        rows = e * self.dim + np.arange(self.dim)
        return int(e.max(initial=0)), tuple(np.ascontiguousarray(r) for r in rows.T)

    def evaluate_columns(self, states):
        """Lift a column-stacked batch: (dim, K) -> (size, K).

        x**0 = 1, x**1 = x and x**a = x**(a-1) * x, and each monomial is the
        product of its components' powers in component order. Every entry is
        the same chain of IEEE multiplications whatever K, so its bits depend
        on its own column alone."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.dim:
            raise ConfigurationError(
                f"expected shape ({self.dim}, K), got {states.shape}"
            )
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

    def manifest(self):
        """Text description, one exponent vector per line."""
        return "\n".join(" ".join(str(a) for a in alpha) for alpha in self.exponents) + "\n"


def monomial_dictionary(n, degree, include_constant=True):
    """All monomials on R^n with total degree <= ``degree``, graded-lex order.

    Size is C(n + degree, degree) when the constant is included. ``n`` is
    an integer >= 1 and ``degree`` one >= 0 (bools refused, NumPy integers
    accepted); anything else raises a :class:`ConfigurationError` naming it.

    Each degree is built from the one below in one pass. Raising component
    i of each exponent whose components before i are all zero (a tail of
    the degree below, which is in descending lexicographic order) gives,
    in that order, the exponents whose first nonzero component is i; for
    i ascending these runs join in descending lexicographic order.
    """
    n = check_integer(n, "n", 1)
    degree = check_integer(degree, "degree", 0)
    if degree == 0 and not include_constant:
        raise ConfigurationError("degree 0 without the constant leaves no observable")
    check_dictionary_size(n, degree, include_constant)
    levels = [[(0,) * n]]
    tails = [0] * n  # tails[i]: where the exponents with zeros before i begin
    for _ in range(degree):
        below, starts, level, tails = levels[-1], tails, [], []
        for i in range(n):
            tails.append(len(level))
            level.extend(a[:i] + (a[i] + 1,) + a[i + 1 :] for a in below[starts[i] :])
        levels.append(level)
    exponents = chain.from_iterable(levels if include_constant else levels[1:])
    return Dictionary(dim=n, exponents=tuple(exponents))


def check_dictionary_size(n, degree, include_constant):
    """Refuse, before any monomial is enumerated, a dictionary whose
    Koopman matrix cannot be held: a :class:`ConfigurationError` naming
    ``degree``, the size N = C(n + degree, degree) (less 1 without the
    constant) and the GiB of an (N, N) float64 matrix, if that matrix
    cannot be allocated."""
    size = math.comb(n + degree, degree) - (0 if include_constant else 1)
    try:
        np.empty((size, size))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ConfigurationError(
            f"cannot allocate the Koopman matrix: degree={degree} gives N={size} "
            f"observables, and an (N, N) matrix requests {size * size * 8 / 2**30:.3g} GiB"
        ) from exc


def coordinate_readout(dictionary):
    """Selector matrix C (n x N) with C @ Phi(x) = x exactly.

    Raises
    ------
    ConfigurationError
        If any coordinate function x_i is missing from the dictionary.
    """
    c = np.zeros((dictionary.dim, dictionary.size))
    for i in range(dictionary.dim):
        unit = (0,) * i + (1,) + (0,) * (dictionary.dim - i - 1)
        try:
            c[i, dictionary.exponents.index(unit)] = 1.0
        except ValueError:
            raise ConfigurationError(
                f"dictionary has no coordinate observable for component {i}; "
                "degree >= 1 is required for state readout"
            ) from None
    return c
