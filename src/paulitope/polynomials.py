"""Sparse integer polynomials, divided differences, and Schubert calculus.

Polynomials are stored as dicts mapping exponent tuples to nonzero integer
coefficients.  Variables are numbered 1..nvars and written x1, x2, ...
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitError, as_int
from .permutations import Permutation, permutations_of_length
from .tableaux import _ssyt, normalize

SCHUBERT_AMBIENT_CAP = 12


class SparsePoly:
    """Multivariate polynomial with integer coefficients, sparse storage.

    The constructor is the one place a zero coefficient is dropped: the
    operators add up their terms and pass the sums to it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars if type(nvars) is int else as_int(nvars, "variable count")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != self.nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                if any(type(e) is not int or e < 0 for e in exps):
                    exps = tuple(as_int(e, "exponent") for e in exps)
                    if any(e < 0 for e in exps):
                        raise ValueError(f"negative exponent in {exps}")
                if type(coeff) is not int:
                    coeff = as_int(coeff, "coefficient")
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @staticmethod
    def zero(nvars: int) -> "SparsePoly":
        return SparsePoly(nvars)

    @staticmethod
    def constant(nvars: int, c: int) -> "SparsePoly":
        return SparsePoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(i: int, nvars: int) -> "SparsePoly":
        if not 1 <= i <= nvars:
            raise ValueError(f"variable x{i} out of range 1..{nvars}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return SparsePoly(nvars, {exps: 1})

    @staticmethod
    def linear_form(coeffs: Sequence[int]) -> "SparsePoly":
        n = len(coeffs)
        return SparsePoly(
            n, {tuple(int(j == k) for j in range(n)): c for k, c in enumerate(coeffs)}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def embed(self, nvars: int) -> "SparsePoly":
        """Reinterpret in a larger variable ring."""
        if nvars < self.nvars:
            raise ValueError(f"cannot shrink from {self.nvars} to {nvars} variables")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return SparsePoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def _check_arity(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_arity(other)
        out = defaultdict(int, self.terms)
        for e, c in other.terms.items():
            out[e] += c
        return SparsePoly(self.nvars, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c: int) -> "SparsePoly":
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_arity(other)
        out: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[tuple(map(add, e1, e2))] += c1 * c2
        return SparsePoly(self.nvars, out)

    def power(self, k: int) -> "SparsePoly":
        if k < 0:
            raise ValueError("negative power")
        result = SparsePoly.constant(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(e, c):
            vars_part = " ".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            if not vars_part:
                return str(c)
            if c == 1:
                return vars_part
            if c == -1:
                return f"-{vars_part}"
            return f"{c} {vars_part}"

        items = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))
        return " + ".join(fmt(e, c) for e, c in items).replace("+ -", "- ")

    def apply_transposition(self, i: int, j: int) -> "SparsePoly":
        """Swap the variables x_i and x_j."""
        a, b = i - 1, j - 1
        out = {}
        for e, c in self.terms.items():
            le = list(e)
            le[a], le[b] = le[b], le[a]
            out[tuple(le)] = c
        return SparsePoly(self.nvars, out)

    def substitute_linear(self, forms: Sequence[Sequence[int]], nvars_out: int) -> "SparsePoly":
        """Substitute each variable by a linear form over a new variable set.

        ``forms[k]`` is the coefficient vector of the form replacing x_{k+1};
        forms must be supplied for every variable that actually occurs.
        """
        form_polys: list[SparsePoly] = []
        for vec in forms:
            if len(vec) != nvars_out:
                raise ValueError("linear form has wrong arity")
            form_polys.append(SparsePoly.linear_form(vec))
        out = SparsePoly.zero(nvars_out)
        for exps, coeff in self.terms.items():
            prod = SparsePoly.constant(nvars_out, coeff)
            for k, e in enumerate(exps):
                if e:
                    if k >= len(form_polys):
                        raise ValueError(f"no form supplied for variable x{k + 1}")
                    prod = prod * form_polys[k].power(e)
            out = out + prod
        return out


def divided_difference(i: int, f: SparsePoly) -> SparsePoly:
    """Apply the i-th divided difference (f - swap_i f) / (x_i - x_{i+1}).

    Works monomial by monomial, so the division is exact by construction.
    """
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"divided difference index {i} needs variables x{i}, x{i + 1}")
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    a_idx, b_idx = i - 1, i
    for exps, coeff in f.terms.items():
        a, b = exps[a_idx], exps[b_idx]
        if a == b:
            continue
        sign = 1
        lo, hi = b, a
        if a < b:
            sign = -1
            lo, hi = a, b
        base = list(exps)
        for t in range(lo, hi):
            base[a_idx] = t
            base[b_idx] = a + b - 1 - t
            out[tuple(base)] += sign * coeff
    return SparsePoly(f.nvars, out)


def divided_difference_word(w: Permutation | Iterable[int], f: SparsePoly) -> SparsePoly:
    """Apply the divided difference operator of a permutation or explicit word.

    For a word (i1, ..., il) the operator is the composition of the single
    divided differences with the rightmost letter acting first.
    """
    word = w.reduced_word() if isinstance(w, Permutation) else tuple(w)
    for i in reversed(word):
        f = divided_difference(i, f)
    return f


def schubert_polynomial(w: Permutation, n: int | None = None) -> SparsePoly:
    """Schubert polynomial of w, computed from the staircase monomial.

    The ambient size n defaults to the largest point w moves; it is capped to
    keep the staircase workload bounded.
    """
    if n is None:
        n = max(w.n, 1)
    if n < w.n:
        raise ValueError(f"w moves {w.n} points, ambient {n} too small")
    if n > SCHUBERT_AMBIENT_CAP:
        raise ResourceLimitError(
            f"schubert_polynomial: ambient {n} exceeds cap {SCHUBERT_AMBIENT_CAP}"
        )
    staircase = SparsePoly(n, {tuple(n - k for k in range(1, n + 1)): 1})
    u = w.inverse() * Permutation.longest(n)
    return divided_difference_word(u, staircase)


def schur_polynomial(gamma: Iterable[int], p: int) -> SparsePoly:
    """Schur polynomial of the shape gamma in the variables x1..xp.

    Computed as the generating function of semistandard tableaux.
    """
    gamma = normalize(gamma)
    if p < 1:
        raise ValueError("need at least one variable")
    return SparsePoly(p, Counter(_ssyt(gamma, p)[1]))


def grassmannian_schubert(w: Permutation) -> SparsePoly | None:
    """Schur form of the Schubert polynomial when w has at most one descent.

    Returns None for permutations with two or more descents.  With the single
    descent at p, the shape is read off as gamma_{p+1-k} = w(k) - k.
    """
    descents = w.descents()
    if not descents:
        return SparsePoly.constant(1, 1)
    if len(descents) > 1:
        return None
    p = descents[0]
    gamma = tuple(w(k) - k for k in range(p, 0, -1))
    return schur_polynomial(gamma, p)


def schubert_expand(f: SparsePoly) -> dict[Permutation, int]:
    """Expand a homogeneous polynomial in the Schubert basis.

    With d the degree of f, the candidate permutations run over those of
    length d inside the symmetric group on nvars + d points; the coefficient
    of S_w is the constant term of the w-th divided difference of f.
    """
    if not f.is_homogeneous():
        raise ValueError("can only expand homogeneous polynomials")
    if f.is_zero():
        return {}
    d = f.degree()
    n = f.nvars + d
    if n > SCHUBERT_AMBIENT_CAP:
        raise ResourceLimitError(f"schubert_expand: ambient {n} exceeds cap {SCHUBERT_AMBIENT_CAP}")
    g = f.embed(n)
    out: dict[Permutation, int] = {}
    for w in permutations_of_length(n, d):
        c = divided_difference_word(w, g).constant_coefficient()
        if c:
            out[w] = c
    return out


def _monk_step(
    u: tuple[int, ...], alpha: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Monk's rule on one-line notation.

    Yields (u t_ij, i, j, alpha_i - alpha_j) for 0-based i < j < len(u), in
    order of (i, j), whenever the coefficient is nonzero and u t_ij is one
    longer than u: that is, u(i) < u(j) and no position between them holds a
    value in between.
    """
    n = len(u)
    for i in range(n - 1):
        ui, ai = u[i], alpha[i]
        ceiling = n + 1
        for j in range(i + 1, n):
            uj = u[j]
            if ui < uj < ceiling:
                ceiling = uj
                coeff = ai - alpha[j]
                if coeff:
                    step = list(u)
                    step[i], step[j] = uj, ui
                    yield tuple(step), i, j, coeff


def monk_multiply(alpha: Sequence[int], v: Permutation) -> dict[Permutation, int]:
    """Expand the product of a linear form with a Schubert polynomial.

    For the form a1 x1 + a2 x2 + ... the product of it with S_v is the sum of
    (a_i - a_j) S_{v t_ij} over transpositions t_ij, i < j, that raise the
    length of v by exactly one.
    """
    alpha = tuple(as_int(a, "form entry") for a in alpha)
    m = max(v.n, len(alpha)) + 1
    padded = alpha + (0,) * (m - len(alpha))
    return {Permutation(u): coeff for u, _, _, coeff in _monk_step(v.one_line(m), padded)}


def _rank_table(u: tuple[int, ...], width: int) -> int:
    """Rows #{a <= i : u(a) >= k} over k = 1..n, for i = 1..n-1, packed into one int.

    The entries go row by row, ``width`` bits each, the first lowest.
    """
    counts = [0] * len(u)
    packed = shift = 0
    for image in u[:-1]:
        for k in range(image):
            counts[k] += 1
        for count in counts:
            packed |= count << shift
            shift += width
    return packed


def _slack_layout(r: int) -> tuple[int, list[int], list[int], int, int]:
    """(width, rows, cols, ones, high): where the entries of a packed rank table on r points sit.

    A slack (v's entry minus u's, where u is below v) is at most r - 1, so
    the top bit of each ``width``-bit entry is clear.  ``rows[a]`` has a one
    at column 0 of each row before a and ``cols[k]`` a one at each column
    before k, so (rows[j] - rows[i]) * (cols[hi] - cols[lo]) has a one in
    every entry of rows i..j-1 and columns lo..hi-1.  ``ones`` and ``high``
    have a one and the top bit in every entry.
    """
    width = r.bit_length() + 1
    cols = [0]
    for k in range(r):
        cols.append(cols[-1] | 1 << width * k)
    rows = [0]
    for a in range(r - 1):
        rows.append(rows[-1] | 1 << width * r * a)
    ones = rows[-1] * cols[-1]
    return width, rows, cols, ones, ones << width - 1


def _monk_layer(
    layer: dict[tuple[int, ...], int],
    alpha: Sequence[int],
    slacks: dict[tuple[int, ...], int],
    layout: tuple[int, list[int], list[int], int, int],
) -> dict[tuple[int, ...], int]:
    """Multiply a Schubert expansion by one linear form, dropping terms not below v.

    ``slacks`` holds, for each permutation u met so far that is below v in
    Bruhat order, v's rank table minus u's, laid out by ``_slack_layout``.
    Every u in ``layer`` is below v.  Swapping u(i) < u(j) raises u's table
    by one in rows i..j-1 and columns u(i)..u(j)-1 (0-based) and nowhere
    else, so u t_ij is below v exactly when each of those entries of u's
    slack is still positive, and its slack is then u's minus a one in each.
    That test runs before the step is built, so a swap that leaves the
    interval builds nothing.  The swaps are ``_monk_step``'s, found by the
    same scan, which skips a position i at once when the one entry every
    swap at i raises, (i, u(i)), has no slack.
    """
    width, rows, cols, ones, high = layout
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for u, c in layer.items():
        n, slack = len(u), slacks[u]
        # taking one from every entry borrows its top bit only where it is zero
        positive = (((slack | high) - ones) & high) >> width - 1
        for i in range(n - 1):
            lo = u[i]
            if lo == n or not positive >> width * (n * i + lo) & 1:
                continue
            ai = alpha[i]
            ceiling = n + 1
            for j in range(i + 1, n):
                hi = u[j]
                if lo < hi < ceiling:
                    ceiling = hi
                    coeff = ai - alpha[j]
                    if not coeff:
                        continue
                    rectangle = (rows[j] - rows[i]) * (cols[hi] - cols[lo])
                    if (positive & rectangle) != rectangle:
                        continue
                    step = u[:i] + (hi,) + u[i + 1 : j] + (lo,) + u[j + 1 :]
                    if step not in slacks:
                        slacks[step] = slack - rectangle
                    out[step] += c * coeff
    return {u: c for u, c in out.items() if c}


def monk_coefficient(
    poly: SparsePoly, forms: Sequence[Sequence[int]], v: Permutation, r: int
) -> int:
    """Coefficient of S_v in poly with x_{k+1} replaced by the linear form forms[k].

    ``forms[k]`` is a coefficient vector over r variables.  Each monomial is
    multiplied onto S_id one linear factor at a time by Monk's rule, keeping
    only the permutations below v in Bruhat order: every saturated chain that
    ends at v stays inside that interval, so the coefficient of v is the sum
    over those chains of the products of their edge weights (Postnikov and
    Stanley, "Chains in the Bruhat order").  Each permutation kept carries
    its rank table's slack below v's, packed into one int, and a step
    u t_ij is tested against v on the one rectangle of entries the swap
    raises (``_monk_layer``).  poly must be
    homogeneous of degree l(v), and v may move at most r points.
    """
    forms = [tuple(c if type(c) is int else as_int(c, "form entry") for c in vec) for vec in forms]
    if any(len(vec) != r for vec in forms):
        raise ValueError("linear form has wrong arity")
    if v.n > r:
        raise ValueError(f"v moves {v.n} points but the forms have {r} variables")
    degree = v.length()
    top = v.one_line(r)
    identity = tuple(range(1, r + 1))
    layout = _slack_layout(r)
    slacks = {identity: _rank_table(top, layout[0]) - _rank_table(identity, layout[0])}
    total = 0
    for exps, coeff in poly.terms.items():
        if sum(exps) != degree:
            raise ValueError(f"term {exps} is not of degree l(v) = {degree}")
        layer = {identity: coeff}
        for k, e in enumerate(exps):
            if e and k >= len(forms):
                raise ValueError(f"no form supplied for variable x{k + 1}")
            for _ in range(e):
                layer = _monk_layer(layer, forms[k], slacks, layout)
        total += layer.get(top, 0)
    return total
