"""Independent reference implementations used to validate the package.

Everything here deliberately takes a different route from the library code:
semistandard tableaux are filled by rejection over raw products, their
number by the hook-content formula, skew standard counts come from
linear-extension enumeration, divided differences
go through sympy's exact division, Schur polynomials through the bialternant
quotient, one-particle density matrices through full antisymmetrized tensors
(or, for exact comparison, the former two-block assembly and state classes,
and the assembly that looked each partner wedge up as a sorted tuple),
and plethysms through multiset expansion or through the dict engine the
package used before its Cauchy-form lattice engine: a Newton series of
weight dicts, Jacobi-Trudi determinants for every Schur functor, and
decomposition by peeling off top weights.  Hulls go through the row-by-row
double description that inserts every inequality, implied or not, or
through the full-product loop that the package's forward scan replaced, and
Schubert coefficients through the fully expanded specialized polynomial.
Partitions of one size are filtered from the walk of the whole box, and
occupation spectra and vertex checks build every state's density matrix,
decoupled or not.
Induced spectra enumerate their tableaux on every call, and Monk chain sums
test each permutation against v with its whole rank table.  Coset
minimality is tested on position blocks built from the tied values.
The Grassmann inequality families are built by the package's former code,
one loop for each closed form and a product of sparse polynomials for the
other widths, whose decomposition looks each alternation term up by binary
search over the sorted terms, and the pipeline by its former decomposition
(a dict checked key by key) and its former equality check (Fraction sums),
or, with the package's own stages, by rebuilding its Newton series at every
cutoff.  The Newton step shifts by every weight of the product f (x) C^k
rather than by one tensor factor at a time, or by one tensor factor at a
time with every shift a strided slice-add over all axes of the box rather
than over contiguous runs.  The Weyl group orbit of the
alternation is enumerated by ``itertools.permutations``, and the dominant
weights of a degree are found by testing every entry of its array.  Rational matrices are read into
integer rows by the object-array reader and by the one-pass int64 reader
that the block reader replaced, and a block of exact ``Fraction``s by
``np.fromiter`` rather than through one byte each.  The forward scan
also has its former fixed blocks of 512 rows, tested against the
lineality basis with two comparisons.
Sparse polynomial sums, products, substitutions and divided differences
also have their former code here, which dropped each zero coefficient by
hand as it arose.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np
import sympy

from paulitope.coefficients import SpectrumEntry
from paulitope.errors import MinimalityError, ResourceLimitError, as_int
from paulitope.generators import (
    KIND2_TERM_CAP,
    KIND2_WIDTH_CAP,
    ExcludedShape,
    InequalityFamily,
    OccupationInequality,
)
from paulitope.permutations import Permutation
from paulitope.plethysm import (
    _GATHER_BLOCK,
    INNER_POINT_DEGREE_CAP,
    INNER_POINT_LEVEL_CAP,
    LatticeCharacter,
    _check_request,
    _decompose_lattice,
    _entry_dtype,
    _strides,
    character,
    inner_points,
    plethysm_h_series,
    schur_decompose,
)
from paulitope.polynomials import (
    SparsePoly,
    divided_difference_word,
    grassmannian_schubert,
    schubert_polynomial,
)
from paulitope.polytope import (
    RAY_CAP,
    IntVec,
    Polytope,
    _ambient_system,
    _Cone,
    _exact,
    _generators,
    _lcm_int64,
    _products,
    _restrict,
    _sorted_rows,
    facet_match,
    hull,
    polytope_from_h,
    polytopes_equal,
)
from paulitope.states import (
    Amplitude,
    OneParticleRDM,
    WedgeState,
    _Support,
    _exact_sqrt,
    level_merged_state,
    occupation_numbers,
    one_particle_rdm,
    paired_flat_state,
    slater_determinant,
)
from paulitope.tableaux import (
    FramedDiagram,
    Partition,
    content_vector,
    count_skew_standard,
    enumerate_ssyt,
    is_semistandard,
    normalize,
    partitions_in_box,
    reading_word,
    shuffle_vertical_sequence,
    size,
)


# ------------------------------------------------------------------- tableaux


def brute_ssyt(shape, max_entry: int) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard fillings by filtering raw row fillings."""
    shape = normalize(shape)
    if not shape:
        return [()]
    rows_choices = []
    for length in shape:
        rows_choices.append(
            [
                row
                for row in itertools.product(range(1, max_entry + 1), repeat=length)
                if all(row[i] <= row[i + 1] for i in range(length - 1))
            ]
        )
    result = []
    for combo in itertools.product(*rows_choices):
        ok = True
        for upper, lower in zip(combo, combo[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                ok = False
                break
        if ok:
            result.append(tuple(combo))
    return result


def filter_partitions_in_box(rows: int, cols: int, total: int | None = None):
    """The box walk that yields every partition and keeps those of size ``total``."""
    rows, cols = as_int(rows, "rows"), as_int(cols, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"box needs rows, cols >= 0, got {rows} x {cols}")

    def rec(remaining_rows: int, cap: int, prefix: tuple[int, ...]):
        yield normalize(prefix)
        if remaining_rows == 0:
            return
        for part in range(cap, 0, -1):
            yield from rec(remaining_rows - 1, part, prefix + (part,))

    return (p for p in rec(rows, cols, ()) if total is None or size(p) == total)


def skew_cells(outer, inner) -> list[tuple[int, int]]:
    outer = normalize(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(tuple(inner)))
    cells = []
    for i, length in enumerate(outer):
        for j in range(inner[i], length):
            cells.append((i, j))
    return cells


def brute_skew_standard_count(outer, inner) -> int:
    """Standard fillings of a skew shape counted as linear extensions."""
    outer = normalize(outer)
    inner_t = tuple(inner) + (0,) * (len(outer) - len(tuple(inner)))
    if any(
        inner_t[i] > (outer[i] if i < len(outer) else 0) for i in range(len(inner_t))
    ):
        return 0
    cells = skew_cells(outer, inner)
    total = len(cells)
    if total == 0:
        return 1
    order = {cell: k for k, cell in enumerate(cells)}
    count = 0
    for perm in itertools.permutations(range(1, total + 1)):
        labels = {cell: perm[order[cell]] for cell in cells}
        good = True
        for (i, j), value in labels.items():
            if (i, j + 1) in labels and labels[(i, j + 1)] < value:
                good = False
                break
            if (i + 1, j) in labels and labels[(i + 1, j)] < value:
                good = False
                break
        if good:
            count += 1
    return count


def brute_kostka(shape, content) -> int:
    """Count semistandard fillings with a pinned content vector."""
    shape = normalize(shape)
    target = tuple(content)
    hits = 0
    for tab in brute_ssyt(shape, len(target)):
        counts = [0] * len(target)
        for row in tab:
            for entry in row:
                counts[entry - 1] += 1
        if tuple(counts) == target:
            hits += 1
    return hits


def weyl_dimension(shape, r: int) -> int:
    """Dimension of the degree-r polynomial representation with highest weight shape.

    The hook-content formula: the product of r + c over the cells, c = j - i
    the content, divided by the product of the hook lengths.  With
    l_i = shape_i + n - 1 - i for n rows, the hook lengths in row i are
    1 .. l_i without the differences l_i - l_j, j > i.
    """
    shape = normalize(shape)
    if len(shape) > r:
        return 0
    n = len(shape)
    ell = [part + n - 1 - i for i, part in enumerate(shape)]
    num = den = 1
    for i, part in enumerate(shape):
        num *= math.prod(range(r - i, r - i + part))
        den *= math.factorial(ell[i]) // math.prod([ell[i] - e for e in ell[i + 1 :]])
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"hook-content quotient for {shape} on {r} levels is not an integer")
    return dim


def diagram_from_indices(indices: Iterable[int], rows: int, cols: int) -> FramedDiagram:
    """Inverse of shuffle_vertical_sequence; validates the index sequence."""
    idx = tuple(int(i) for i in indices)
    if len(idx) != rows:
        raise ValueError(f"expected {rows} indices, got {len(idx)}")
    if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
        raise ValueError(f"indices not strictly increasing: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > rows + cols):
        raise ValueError(f"indices out of range 1..{rows + cols}: {idx}")
    parts = tuple(idx[k - 1] - k for k in range(rows, 0, -1))
    return FramedDiagram(normalize(parts), rows, cols)


# ---------------------------------------------------------- sympy polynomials


def sympy_vars(n: int):
    return sympy.symbols(f"x1:{n + 1}")


def poly_to_sympy(poly: SparsePoly):
    xs = sympy_vars(poly.nvars)
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Integer(coeff)
        for x, e in zip(xs, exps):
            term *= x**e
        expr += term
    return sympy.expand(expr), xs


def sympy_to_terms(expr, xs) -> dict:
    poly = sympy.Poly(expr, *xs)
    return {
        tuple(int(e) for e in monom): int(coeff)
        for monom, coeff in poly.terms()
        if coeff
    }


def sympy_divided_difference(poly: SparsePoly, i: int) -> dict:
    """(f - swap_i f) / (x_i - x_{i+1}) by exact division."""
    expr, xs = poly_to_sympy(poly)
    a, b = xs[i - 1], xs[i]
    swapped = expr.subs({a: b, b: a}, simultaneous=True)
    quotient = sympy.cancel((expr - swapped) / (a - b))
    return sympy_to_terms(sympy.expand(quotient), xs)


# ------------------------------------------------ former SparsePoly operators
#
# The package's sums, products, substitutions and divided differences as they
# were when each operator dropped a zero coefficient the moment it arose.


def _reference_check_arity(p: SparsePoly, q: SparsePoly) -> None:
    if p.nvars != q.nvars:
        raise ValueError(f"arity mismatch: {p.nvars} vs {q.nvars}")


def reference_poly_add(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    _reference_check_arity(p, q)
    out = dict(p.terms)
    for e, c in q.terms.items():
        new = out.get(e, 0) + c
        if new:
            out[e] = new
        else:
            out.pop(e, None)
    return SparsePoly(p.nvars, out)


def reference_poly_mul(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    _reference_check_arity(p, q)
    out: dict[tuple[int, ...], int] = {}
    small, big = (p.terms, q.terms)
    if len(small) > len(big):
        small, big = big, small
    for e1, c1 in small.items():
        for e2, c2 in big.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            new = out.get(key, 0) + c1 * c2
            if new:
                out[key] = new
            else:
                del out[key]
    return SparsePoly(p.nvars, out)


def _reference_linear_form(coeffs) -> SparsePoly:
    n = len(coeffs)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            exps = tuple(1 if j == k else 0 for j in range(n))
            terms[exps] = int(c)
    return SparsePoly(n, terms)


def reference_substitute_linear(poly: SparsePoly, forms, nvars_out: int) -> SparsePoly:
    """Each x_{k+1} replaced by the form forms[k], with one memo of form powers."""
    form_polys: list[SparsePoly | None] = []
    for vec in forms:
        if len(vec) != nvars_out:
            raise ValueError("linear form has wrong arity")
        form_polys.append(_reference_linear_form(vec))
    powers: dict[tuple[int, int], SparsePoly] = {}

    def form_power(k: int, e: int) -> SparsePoly:
        key = (k, e)
        if key not in powers:
            if e == 1:
                powers[key] = form_polys[k]
            else:
                powers[key] = reference_poly_mul(form_power(k, e - 1), form_polys[k])
        return powers[key]

    out = SparsePoly.zero(nvars_out)
    for exps, coeff in poly.terms.items():
        prod = SparsePoly.constant(nvars_out, coeff)
        for k, e in enumerate(exps):
            if e:
                if k >= len(form_polys):
                    raise ValueError(f"no form supplied for variable x{k + 1}")
                prod = reference_poly_mul(prod, form_power(k, e))
        out = reference_poly_add(out, prod)
    return out


def reference_divided_difference(i: int, f: SparsePoly) -> SparsePoly:
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"divided difference index {i} needs variables x{i}, x{i + 1}")
    out: dict[tuple[int, ...], int] = {}
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
            key = tuple(base)
            new = out.get(key, 0) + sign * coeff
            if new:
                out[key] = new
            else:
                del out[key]
    return SparsePoly(f.nvars, out)


def reference_schubert_polynomial(w: Permutation) -> SparsePoly:
    """S_w from the staircase monomial through the former divided differences."""
    n = max(w.n, 1)
    f = SparsePoly(n, {tuple(n - k for k in range(1, n + 1)): 1})
    for i in reversed((w.inverse() * Permutation.longest(n)).reduced_word()):
        f = reference_divided_difference(i, f)
    return f


def bialternant_schur(gamma, p: int) -> dict:
    """Schur polynomial as a quotient of alternants."""
    gamma = tuple(normalize(gamma)) + (0,) * p
    if len(normalize(gamma)) > p:
        return {}
    xs = sympy_vars(p)
    rows = [[xs[i] ** (gamma[j] + p - 1 - j) for j in range(p)] for i in range(p)]
    vand = [[xs[i] ** (p - 1 - j) for j in range(p)] for i in range(p)]
    num = sympy.Matrix(rows).det(method="berkowitz")
    den = sympy.Matrix(vand).det(method="berkowitz")
    quotient = sympy.cancel(num / den)
    return sympy_to_terms(sympy.expand(quotient), xs)


# ---------------------------------------------------- Grassmann product forms


def grassmann_permutation(gamma, descent: int) -> Permutation:
    """The unique permutation with code gamma reversed on its first block."""
    gamma = tuple(normalize(gamma)) + (0,) * descent
    head = [k + gamma[descent - k] for k in range(1, descent + 1)]
    used = set(head)
    tail = (j for j in itertools.count(1) if j not in used)
    images = head + list(itertools.islice(tail, max(head) - descent))
    return Permutation(images)


def product_coefficient(product: SparsePoly, gamma, descent: int) -> int:
    """Coefficient of the Schur basis element in a product of linear forms.

    Applies the divided-difference word of the Grassmann permutation of
    gamma; for a homogeneous input of matching degree the result is the
    coefficient, by duality of the basis under these operators.
    """
    w = grassmann_permutation(gamma, descent)
    ambient = max(w.n + 1, product.nvars)
    result = divided_difference_word(w, product.embed(ambient))
    if not result.is_constant():
        raise AssertionError(f"nonconstant remainder for gamma={gamma}")
    return result.constant_coefficient()


def kind1_product(n_particles: int, r: int) -> SparsePoly:
    """prod_{j=N..r} (x_1 + ... + x_{N-1} + x_j) over r variables."""
    poly = SparsePoly.constant(r, 1)
    for j in range(n_particles, r + 1):
        coeffs = [1 if (k < n_particles - 1 or k == j - 1) else 0 for k in range(r)]
        poly = poly * SparsePoly.linear_form(coeffs)
    return poly


def kind2_product(n_particles: int, p: int) -> SparsePoly:
    """prod over N-subsets K of 1..p of (sum_{k in K} x_k)."""
    poly = SparsePoly.constant(p, 1)
    for subset in itertools.combinations(range(p), n_particles):
        coeffs = [1 if k in subset else 0 for k in range(p)]
        poly = poly * SparsePoly.linear_form(coeffs)
    return poly


def brute_cgamma_kind1(gamma, n_particles: int, r: int) -> int:
    return product_coefficient(
        kind1_product(n_particles, r), gamma, n_particles - 1
    )


def brute_cgamma_kind2(gamma, n_particles: int, p: int) -> int:
    return product_coefficient(kind2_product(n_particles, p), gamma, p)


# ------------------------------------------------------------- wedge states


def _perm_sign(seq) -> int:
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def dense_tensor(psi) -> np.ndarray:
    """Full antisymmetrized N-particle tensor of a wedge state."""
    n, r = psi.n_particles, psi.levels
    tensor = np.zeros((r,) * n)
    for subset, amp in psi.amplitudes.items():
        weight = amp.sign * math.sqrt(float(amp.radicand))
        for perm in itertools.permutations(range(n)):
            idx = tuple(subset[p] - 1 for p in perm)
            tensor[idx] += _perm_sign(perm) * weight
    return tensor / math.sqrt(math.factorial(n))


def tensor_rdm(psi) -> np.ndarray:
    """One-particle density matrix by explicit partial trace, trace N."""
    n, r = psi.n_particles, psi.levels
    tensor = dense_tensor(psi)
    flat = tensor.reshape(r, -1)
    rho = flat @ flat.T
    norm = float(psi.norm_squared())
    return n * rho / norm


# The state constructors, density-matrix assembly and content route the
# package used before its single amplitude store: an exact and a float block
# per matrix, a copy of the store in each state class, and wedge contents
# counted apart from tableau contents.  Reprs print the package's class names,
# so a frozen state and a package state can be compared by repr.


def reference_amplitude(sign: int, radicand) -> Amplitude:
    sign = int(sign)
    radicand = Fraction(radicand)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if radicand < 0:
        raise ValueError(f"radicand must be nonnegative, got {radicand}")
    return Amplitude(sign, radicand)


class _ReferenceExactState:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        *head, amplitudes = self._fields()
        return hash((*head, frozenset(amplitudes.items())))

    def __repr__(self) -> str:
        name = type(self).__name__.removeprefix("Reference")
        return f"{name}({', '.join(map(repr, self._fields()))})"


class ReferenceWedgeState(_ReferenceExactState):
    __slots__ = ("n_particles", "levels", "amplitudes")

    def __init__(self, n_particles: int, levels: int, amplitudes):
        self.n_particles = int(n_particles)
        self.levels = int(levels)
        clean: dict[tuple[int, ...], Amplitude] = {}
        for subset, amp in amplitudes.items():
            key = tuple(int(x) for x in subset)
            if len(key) != self.n_particles:
                raise ValueError(f"wedge {key} has wrong particle count")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"wedge indices must be strictly increasing: {key}")
            if key and (key[0] < 1 or key[-1] > self.levels):
                raise ValueError(f"wedge indices out of range 1..{self.levels}: {key}")
            if not isinstance(amp, Amplitude):
                amp = reference_amplitude(*amp)
            if amp.radicand:
                clean[key] = amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        self.amplitudes = clean

    @staticmethod
    def from_terms(n_particles: int, levels: int, terms) -> "ReferenceWedgeState":
        amps = {
            tuple(t["subset"]): reference_amplitude(t.get("sign", 1), Fraction(str(t["radicand"])))
            for t in terms
        }
        return ReferenceWedgeState(n_particles, levels, amps)

    def norm_squared(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.amplitudes)


class ReferenceTableauState(_ReferenceExactState):
    __slots__ = ("nu", "levels", "amplitudes")

    def __init__(self, nu, levels: int, amplitudes):
        self.nu = normalize(nu)
        self.levels = int(levels)
        clean = {}
        for tab, amp in amplitudes.items():
            key = tuple(tuple(int(x) for x in row) for row in tab)
            if not is_semistandard(key, self.nu):
                raise ValueError(f"not a semistandard tableau of shape {self.nu}: {key}")
            if any(x < 1 or x > self.levels for row in key for x in row):
                raise ValueError(f"entries out of range 1..{self.levels}: {key}")
            if not isinstance(amp, Amplitude):
                amp = reference_amplitude(*amp)
            if amp.radicand:
                clean[key] = amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        self.amplitudes = clean

    def norm_squared(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))

    def support(self) -> list:
        return sorted(self.amplitudes)


def reference_one_particle_rdm(psi) -> OneParticleRDM:
    """The density matrix built by an exact block, or else a float block."""
    r = psi.levels
    norm2 = psi.norm_squared()
    diag = [Fraction(0)] * r
    for subset, amp in psi.amplitudes.items():
        for i in subset:
            diag[i - 1] += amp.radicand
    off_terms: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for subset, amp in psi.amplitudes.items():
        occupied = set(subset)
        for i in subset:
            for j in range(i + 1, r + 1):
                if j in occupied:
                    continue
                partner = tuple(sorted(occupied - {i} | {j}))
                other = psi.amplitudes.get(partner)
                if other is None:
                    continue
                between = sum(1 for x in subset if i < x < j)
                sign = amp.sign * other.sign * (-1) ** between
                off_terms.setdefault((i, j), []).append((sign, amp.radicand * other.radicand))

    exact = True
    off_exact: dict[tuple[int, int], Fraction] = {}
    for key, terms in off_terms.items():
        total = Fraction(0)
        for sign, rad in terms:
            root = _exact_sqrt(rad)
            if root is None:
                exact = False
                break
            total += sign * root
        if not exact:
            break
        off_exact[key] = total

    if exact:
        rows = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            rows[i][i] = diag[i] / norm2
        for (i, j), val in off_exact.items():
            rows[i - 1][j - 1] = val / norm2
            rows[j - 1][i - 1] = val / norm2
        return OneParticleRDM(tuple(tuple(row) for row in rows), True)

    fnorm = float(norm2)
    frows = [[0.0] * r for _ in range(r)]
    for i in range(r):
        frows[i][i] = float(diag[i]) / fnorm
    for (i, j), terms in off_terms.items():
        val = sum(sign * math.sqrt(float(rad)) for sign, rad in terms) / fnorm
        frows[i - 1][j - 1] = val
        frows[j - 1][i - 1] = val
    return OneParticleRDM(tuple(tuple(row) for row in frows), False)


def reference_occupation_numbers(psi):
    rdm = reference_one_particle_rdm(psi)
    if rdm.exact and rdm.is_diagonal():
        return tuple(sorted((rdm.entries[i][i] for i in range(psi.levels)), reverse=True))
    eigs = np.linalg.eigvalsh(rdm.as_array())
    return tuple(sorted((float(x) for x in eigs), reverse=True))


def _reference_support_contents(support, levels: int) -> list[tuple[int, ...]]:
    contents = []
    for item in support:
        if item and isinstance(item[0], tuple):
            contents.append(content_vector(item, levels))
        else:
            vec = [0] * levels
            for x in item:
                vec[x - 1] += 1
            contents.append(tuple(vec))
    return contents


def reference_weight_graph_disconnected(support, levels: int | None = None) -> bool:
    if levels is None:
        levels = max(
            (x for item in support for x in (
                (y for row in item for y in row) if item and isinstance(item[0], tuple) else item
            )),
            default=1,
        )
    contents = _reference_support_contents(support, levels)
    for i in range(len(contents)):
        for j in range(i + 1, len(contents)):
            delta = [a - b for a, b in zip(contents[i], contents[j])]
            if sorted(x for x in delta if x) == [-1, 1]:
                return False
    return True


def reference_dadok_kac_spectrum(state) -> tuple[Fraction, ...]:
    support = state.support()
    if not reference_weight_graph_disconnected(support, state.levels):
        raise ValueError("support vectors are coupled; the diagonal formula does not apply")
    contents = _reference_support_contents(support, state.levels)
    norm2 = state.norm_squared()
    occ = [Fraction(0)] * state.levels
    for item, content in zip(support, contents):
        rad = state.amplitudes[item].radicand
        for i, mult in enumerate(content):
            if mult:
                occ[i] += mult * rad
    return tuple(x / norm2 for x in occ)


# The density-matrix assembly the package ran before it paired wedges by
# bitmask: each wedge's levels are walked, each partner is looked up as a
# sorted tuple, and the diagonal is summed in Fractions.  Its per-(i, j) term
# lists, and their order, are the ones the package keeps.  Beside it, the
# vertex check that sorted the diagonal and the expected spectrum as
# Fractions.


def lookup_one_particle_rdm(psi: WedgeState) -> OneParticleRDM:
    r, amps = psi.levels, psi.amplitudes
    diag = [Fraction(0)] * r
    off: dict[tuple[int, int], list[tuple[int, Fraction, Fraction | None]]] = {}
    for subset, amp in amps.items():
        occupied = set(subset)
        for i in subset:
            diag[i - 1] += amp.radicand
            for j in range(i + 1, r + 1):
                if j in occupied:
                    continue
                other = amps.get(tuple(sorted(occupied - {i} | {j})))
                if other is None:
                    continue
                between = sum(1 for x in subset if i < x < j)
                rad = amp.radicand * other.radicand
                off.setdefault((i, j), []).append(
                    (amp.sign * other.sign * (-1) ** between, rad, _exact_sqrt(rad))
                )
    exact = all(root is not None for terms in off.values() for _, _, root in terms)

    norm2 = psi.norm_squared()
    if exact:
        zero, norm = Fraction(0), norm2
        values = {key: [sign * root for sign, _, root in terms] for key, terms in off.items()}
    else:
        zero, norm, diag = 0.0, float(norm2), [float(d) for d in diag]
        values = {
            key: [sign * math.sqrt(float(rad)) for sign, rad, _ in terms]
            for key, terms in off.items()
        }
    rows = [[zero] * r for _ in range(r)]
    for i, d in enumerate(diag):
        rows[i][i] = d / norm
    for (i, j), terms in values.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = sum(terms) / norm
    return OneParticleRDM(tuple(map(tuple, rows)), exact)


def fraction_verify_vertex(psi: WedgeState, expected_ratio, tolerance: float = 1e-9) -> bool:
    ratio = [x if type(x) in (int, Fraction) else Fraction(str(x)) for x in expected_ratio]
    if len(ratio) != psi.levels:
        raise ValueError(f"expected {psi.levels} ratio entries, got {len(ratio)}")
    total = Fraction(sum(ratio))
    if total <= 0:
        raise ValueError("ratio must have positive sum")
    expected = sorted((x * psi.n_particles / total for x in ratio), reverse=True)
    occ = reference_occupation_numbers(psi)
    if occ and isinstance(occ[0], Fraction):
        return list(occ) == expected
    return max(abs(o - float(e)) for o, e in zip(occ, expected)) <= tolerance


# The spectrum and vertex check as they were before a decoupled support was
# read from its integer diagonal: every state builds its density matrix, and
# the check compares Fractions.


def matrix_occupation_numbers(psi):
    rdm = one_particle_rdm(psi)
    if rdm.exact and rdm.is_diagonal():
        diag = [rdm.entries[i][i] for i in range(psi.levels)]
        den = math.lcm(*(d.denominator for d in diag))
        return tuple(sorted(diag, key=lambda d: d.numerator * (den // d.denominator), reverse=True))
    eigs = np.linalg.eigvalsh(rdm.as_array())
    return tuple(sorted((float(x) for x in eigs), reverse=True))


def matrix_verify_vertex(psi: WedgeState, expected_ratio, tolerance: float = 1e-9) -> bool:
    ratio = [x if type(x) in (int, Fraction) else Fraction(str(x)) for x in expected_ratio]
    if len(ratio) != psi.levels:
        raise ValueError(f"expected {psi.levels} ratio entries, got {len(ratio)}")
    total = sum(ratio)
    if total <= 0:
        raise ValueError("ratio must have positive sum")
    expected = [Fraction(x * psi.n_particles, total) for x in sorted(ratio, reverse=True)]
    occ = matrix_occupation_numbers(psi)
    if occ and isinstance(occ[0], Fraction):
        return list(occ) == expected
    return max(abs(o - float(e)) for o, e in zip(occ, expected)) <= tolerance


# The support pass the package used before it tested each unordered pair of
# wedges once: an ordered double loop that tests every pair twice and keeps
# it from the side of the wedge holding the lower level.


def ordered_gather(psi: WedgeState) -> _Support:
    """One pass over the support, each wedge read as the bitmask of its levels.

    Two wedges couple when their masks differ in exactly two bits i < j, and
    the pair adds to the (i, j) entry from the wedge holding i; the
    fermionic sign counts the occupied levels strictly between i and j.
    """
    if not isinstance(psi, WedgeState):
        raise TypeError(f"one_particle_rdm needs a WedgeState, got {type(psi).__name__}")
    amps = list(psi.amplitudes.values())
    den = math.lcm(*(amp.radicand.denominator for amp in amps))
    nums = [amp.radicand.numerator * (den // amp.radicand.denominator) for amp in amps]
    diag = [0] * psi.levels
    masks = []
    for subset, num in zip(psi.amplitudes, nums):
        mask = 0
        for i in subset:
            diag[i - 1] += num
            mask |= 1 << i
        masks.append(mask)
    off = {}
    for mask, amp in zip(masks, amps):
        for other_mask, other in zip(masks, amps):
            moved = mask ^ other_mask
            low = moved & -moved
            if moved.bit_count() != 2 or not mask & low:
                continue
            high = moved ^ low
            sign = amp.sign * other.sign * (-1) ** (mask & (high - 2 * low)).bit_count()
            rad = amp.radicand * other.radicand
            off.setdefault((low.bit_length() - 1, high.bit_length() - 1), []).append(
                (sign, rad, _exact_sqrt(rad))
            )
    return _Support(diag, sum(nums), den, off)


# ----------------------------------------------------------------- plethysm


def brute_h_weights(m: int, weights: dict) -> dict:
    """Degree-m complete symmetric plethysm by multiset enumeration."""
    basis = []
    for weight, mult in sorted(weights.items()):
        basis.extend([weight] * mult)
    out: dict = {}
    for combo in itertools.combinations_with_replacement(range(len(basis)), m):
        total = tuple(sum(basis[i][k] for i in combo) for k in range(len(basis[0])))
        out[total] = out.get(total, 0) + 1
    return out


def power_substitute(f: SparsePoly, k: int) -> SparsePoly:
    """Replace every weight by k times itself (Adams operation on characters)."""
    if k < 1:
        raise ValueError("power substitution needs k >= 1")
    return SparsePoly(
        f.nvars, {tuple(k * x for x in wt): m for wt, m in f.terms.items()}
    )


def dict_h_series(m_max: int, f: SparsePoly) -> list[SparsePoly]:
    """Sym^0(f) .. Sym^m_max(f) by the Newton recurrence on weight dicts."""
    series = [SparsePoly.constant(f.nvars, 1)]
    adams = [None] + [power_substitute(f, k) for k in range(1, m_max + 1)]
    for m in range(1, m_max + 1):
        acc = SparsePoly.zero(f.nvars)
        for k in range(1, m + 1):
            acc = acc + adams[k] * series[m - k]
        out = {}
        for wt, mult in acc.terms.items():
            q, rem = divmod(mult, m)
            if rem:
                raise ArithmeticError("Newton recurrence must divide exactly")
            out[wt] = q
        series.append(SparsePoly(f.nvars, out))
    return series


def plethysm_schur(mu, f: SparsePoly, h_series=None) -> SparsePoly:
    """Character of the mu-shaped Schur functor of f: the Jacobi-Trudi determinant
    of symmetric-power characters h_{mu_i - i + j}."""
    mu = normalize(mu)
    if not mu:
        return SparsePoly.constant(f.nvars, 1)
    n = len(mu)
    need = mu[0] + n - 1
    if h_series is None or len(h_series) <= need:
        h_series = dict_h_series(need, f)
    total = SparsePoly.zero(f.nvars)
    for sigma in itertools.permutations(range(n)):
        indices = [mu[i] - i + sigma[i] for i in range(n)]
        if any(k < 0 for k in indices):
            continue
        term = SparsePoly.constant(f.nvars, 1)
        for k in indices:
            term = term * h_series[k]
        total = total + term.scale(_perm_sign(sigma))
    return total


def schur_decompose_peel(f: SparsePoly) -> dict:
    """Decomposition by repeatedly peeling the top weight's character."""
    remaining = dict(f.terms)
    result: dict = {}
    while remaining:
        top = max(remaining)
        mult = remaining[top]
        if mult < 0 or any(top[i] < top[i + 1] for i in range(f.nvars - 1)):
            raise ValueError("not a character")
        lam = normalize(top)
        result[lam] = mult
        for wt, m in character(lam, f.nvars).terms.items():
            new = remaining.get(wt, 0) - mult * m
            if new:
                remaining[wt] = new
            else:
                del remaining[wt]
    return result


# The dominant-weight scan the package used before it enumerated partitions:
# one broadcast comparison per free axis over every entry of the degree's array.


def reference_dominant_flat(f: LatticeCharacter) -> np.ndarray:
    """Flat indices of the dominant weights (weakly decreasing in each group) in the support."""
    shape = f.array.shape
    mask = f.array != 0
    axis = 0
    for g, total in zip(f.groups, f.totals):
        free = [
            np.arange(shape[a]).reshape([-1 if b == a else 1 for b in range(len(shape))])
            for a in range(axis, axis + g - 1)
        ]
        if free:
            chain = free + [total - sum(free)]
            for upper, lower in zip(chain, chain[1:]):
                mask &= upper >= lower
        axis += g - 1
    return np.flatnonzero(mask)


def reference_signed_delta_orbit(groups: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets delta - w(delta) and signs over S_g1 x S_g2 x ..., as the package built them before.

    Each S_g comes from ``itertools.permutations`` (lexicographic order) and
    its signs from counting the inverted pairs of every row.
    """
    offsets = np.zeros((1, 0), dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for g in groups:
        perms = np.array(list(itertools.permutations(range(g))), dtype=np.int64)
        inversions = np.zeros(len(perms), dtype=np.int64)
        for i in range(g):
            for j in range(i + 1, g):
                inversions += perms[:, i] > perms[:, j]
        delta = np.arange(g - 1, -1, -1, dtype=np.int64)
        offsets = np.concatenate(
            [np.repeat(offsets, len(perms), axis=0), np.tile(delta - delta[perms], (len(offsets), 1))],
            axis=1,
        )
        signs = np.repeat(signs, len(perms)) * np.tile(1 - 2 * (inversions % 2), len(signs))
    return offsets, signs


def reference_free_columns(groups: tuple[int, ...]) -> list[int]:
    """Columns of the complete coordinates that are free: all but each group's last."""
    ends = list(itertools.accumulate(groups))
    return [c for c in range(ends[-1]) if c + 1 not in ends]


# The orbit table of the direct alternation as the package built it while
# that route still alternated S_7 and S_8: each S_n assembled in numpy from
# S_{n-1}, with no per-row Python loop.  Independent of
# ``reference_signed_delta_orbit``, which is built with ``itertools``.


def reference_lex_permutations(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(g) in lexicographic order, one row each, and its inversion count.

    The rows with first entry a are those of S_{g-1} with every entry >= a
    raised by one, in their own order; a precedes exactly a smaller entries.
    """
    perms = np.zeros((1, 0), dtype=np.int64)
    inversions = np.zeros(1, dtype=np.int64)
    for n in range(1, g + 1):
        perms = np.concatenate(
            [np.column_stack([np.full(len(perms), a), perms + (perms >= a)]) for a in range(n)]
        )
        inversions = np.concatenate([inversions + a for a in range(n)])
    return perms, inversions


@lru_cache(maxsize=None)
def reference_orbit(groups: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """pi(i) on the free axes and the sign of every w in S_g1 x S_g2 x ..., one row each.

    Each group's permutation pi gives its first g - 1 values, one column per
    free axis, and the rows run through each S_g in lexicographic order.
    The arrays are cached, so they are made read-only.
    """
    perms = np.zeros((1, 0), dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for g in groups:
        lex, inversions = reference_lex_permutations(g)
        perms = np.concatenate(
            [np.repeat(perms, len(lex), axis=0), np.tile(lex[:, : g - 1], (len(perms), 1))], axis=1
        )
        signs = np.repeat(signs, len(lex)) * np.tile(1 - 2 * (inversions % 2), len(signs))
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


# The direct alternation block as the package had it before both routes read
# a row as its keys lam_i - i and the masks of the values pi(i) each free
# axis allows: complete-coordinate offsets delta - w(delta), cut to the free
# columns, and a range check of every free axis against the box.


def reference_alternate(coords, offsets, signs, box, strides, values) -> np.ndarray:
    """Weyl alternation sums sum_w sign(w) f(coords + offset(w)), one per row of coords.

    One block of the direct route: every row meets the whole orbit, and a
    term whose key falls outside the box is masked to zero after it is
    built.  ``box`` is the shape the coordinates index into, ``strides`` its
    flat index steps, and ``values`` the flat array of multiplicities.
    """
    valid = np.ones((len(coords), len(offsets)), dtype=bool)
    for axis, n in enumerate(box):
        key = coords[:, axis, None] + offsets[None, :, axis]
        valid &= (key >= 0) & (key < n)
    flat = np.where(valid, (coords @ strides)[:, None] + offsets @ strides, 0)
    return (np.where(valid, values[flat], 0) * signs).sum(axis=1)


def reference_direct_block(coords, groups, box, strides, values) -> np.ndarray:
    """``reference_alternate`` with the free columns of the itertools orbit table."""
    offsets, signs = reference_signed_delta_orbit(groups)
    return reference_alternate(
        coords, offsets[:, reference_free_columns(groups)], signs, box, strides, values
    )


# The Newton step the package took before it swept one tensor factor at a
# time: every weight of the product f (x) C^k shifts h_{m-j} into the
# accumulator, |f| k slice-adds per j.


def flat_product_h_series(m_max: int, f: SparsePoly, k: int = 1, series=None) -> list:
    """Degrees 0 .. m_max of Sym(f (x) C^k) by the flat-product step.

    ``series``, if given, is extended in place without any check, so a
    degree below m_max may be patched to test the step's own checks.
    """
    r = f.nvars
    degree = max(f.degree(), 0)
    groups = (r,) if k == 1 else (r, k)
    units = [tuple(int(a == b) for b in range(k)) for a in range(k)] if k > 1 else [()]
    factor = [(wt[:-1] + e[:-1], mult) for wt, mult in f.terms.items() for e in units]
    totals = (degree,) if k == 1 else (degree, 1)
    if series is None:
        trivial = np.ones((1,) * (r + k - 2), dtype=np.int64)
        series = [LatticeCharacter(groups, (0,) * len(groups), trivial)]
    while len(series) <= m_max:
        series.append(flat_product_newton_step(series, factor, totals, k * sum(f.terms.values())))
    return series[: m_max + 1]


def flat_product_newton_step(
    series: list[LatticeCharacter], factor: list, totals: tuple[int, ...], dim: int
) -> LatticeCharacter:
    """Degree m = len(series) of Sym(f (x) C^k), from the degrees below it.

    ``factor`` holds the weights of f (x) C^k on the free coordinates with
    their multiplicities, ``totals`` the coordinate sum of each group in
    degree 1, and dim = k dim f.
    """
    m = len(series)
    groups = series[0].groups
    caps = [max((wt[axis] for wt, _ in factor), default=0) for axis in range(series[0].array.ndim)]
    dim_m = comb(dim + m - 1, m)
    dtype = _entry_dtype(m * dim_m * math.prod(math.factorial(g) for g in groups))
    acc = np.zeros(tuple(m * c + 1 for c in caps), dtype=dtype)
    for j in range(1, m + 1):
        prev = series[m - j].array.astype(dtype, copy=False)
        for shift, mult in factor:
            window = tuple(slice(j * s, j * s + n) for s, n in zip(shift, prev.shape))
            acc[window] += prev if mult == 1 else mult * prev
    if (acc % m).any():
        raise ArithmeticError(f"Newton recurrence does not divide exactly at degree {m}")
    acc //= m
    term = LatticeCharacter(groups, tuple(t * m for t in totals), acc)
    if term.dimension() != dim_m:
        raise ArithmeticError(f"degree {m} has dimension {term.dimension()}, not {dim_m}")
    return term


# The Newton step the package took before it laid every shift out on
# contiguous runs: one sweep per tensor factor, each weight a strided
# slice-add over every axis of the box.


def sweep_h_series(m_max: int, f: SparsePoly, k: int = 1, series=None) -> list:
    """Degrees 0 .. m_max of Sym(f (x) C^k) by the strided sweep step.

    ``series``, if given, is extended in place without any check, so a
    degree below m_max may be patched to test the step's own checks.
    """
    r = f.nvars
    degree = max(f.degree(), 0)
    groups = (r,) if k == 1 else (r, k)
    units = [tuple(int(a == b) for b in range(k)) for a in range(k)] if k > 1 else [()]
    factors = [[(wt[:-1] + (0,) * (k - 1), mult) for wt, mult in f.terms.items()]]
    if k > 1:
        factors.append([((0,) * (r - 1) + e[:-1], 1) for e in units] if f.terms else [])
    totals = (degree,) if k == 1 else (degree, 1)
    if series is None:
        trivial = np.ones((1,) * (r + k - 2), dtype=np.int64)
        series = [LatticeCharacter(groups, (0,) * len(groups), trivial)]
    while len(series) <= m_max:
        series.append(sweep_newton_step(series, factors, totals, k * sum(f.terms.values())))
    return series[: m_max + 1]


def sweep_newton_step(
    series: list[LatticeCharacter], factors: list[list], totals: tuple[int, ...], dim: int
) -> LatticeCharacter:
    """Degree m = len(series) of Sym(f (x) C^k), from the degrees below it.

    ``factors`` holds the weights of f and then those of C^k on the free
    coordinates with their multiplicities; h_{m-j} shifted by each weight of
    f goes into a temporary, and that shifted by each weight of C^k into the
    accumulator, every shift a slice over all axes of the box.
    """
    m = len(series)
    groups = series[0].groups
    ndim = series[0].array.ndim
    caps = [[max((wt[a] for wt, _ in factor), default=0) for a in range(ndim)] for factor in factors]
    dim_m = comb(dim + m - 1, m)
    dtype = _entry_dtype(m * dim_m * prod(math.factorial(g) for g in groups))
    acc = np.zeros(tuple(m * sum(c) + 1 for c in zip(*caps)), dtype=dtype)
    for j in range(1, m + 1):
        prev = series[m - j].array.astype(dtype, copy=False)
        for i, (factor, cap) in enumerate(zip(factors, caps)):
            if i == len(factors) - 1:
                swept = acc
            else:
                swept = np.zeros(tuple(n + j * c for n, c in zip(prev.shape, cap)), dtype=dtype)
            for shift, mult in factor:
                window = tuple(slice(j * s, j * s + n) for s, n in zip(shift, prev.shape))
                swept[window] += prev if mult == 1 else mult * prev
            prev = swept
    if (acc % m).any():
        raise ArithmeticError(f"Newton recurrence does not divide exactly at degree {m}")
    acc //= m
    term = LatticeCharacter(groups, tuple(t * m for t in totals), acc)
    if term.dimension() != dim_m:
        raise ArithmeticError(f"degree {m} has dimension {term.dimension()}, not {dim_m}")
    return term


def cauchy_components(nu, r: int, k: int, m_max: int) -> list[dict]:
    """Highest weights of Sym^m(S_nu C^r (x) C^k), m = 0 .. m_max, by the dict engine.

    For every mu |- m with at most k rows, each component lam of S_mu(S_nu C^r)
    contributes (lam, mu) with its multiplicity; with k = 1 the key is lam.
    """
    f = character(nu, r)
    h_series = dict_h_series(m_max, f)
    out = []
    for m in range(m_max + 1):
        degree: dict = {}
        for mu in partitions_in_box(k, m, total=m):
            for lam, mult in schur_decompose_peel(plethysm_schur(mu, f, h_series)).items():
                degree[lam if k == 1 else (lam, mu)] = mult
        out.append(degree)
    return out


def cauchy_points(components: list[dict], r: int, k: int, m_cap: int) -> list:
    """Sorted normalized points (lam / m, mu / m) of the components up to degree m_cap."""
    points = set()
    for m in range(1, m_cap + 1):
        for key in components[m]:
            lam, mu = (key, (m,)) if k == 1 else key
            lam = lam + (0,) * (r - len(lam))
            mu = mu + (0,) * (k - len(mu))
            points.add((tuple(Fraction(x, m) for x in lam), tuple(Fraction(x, m) for x in mu)))
    return sorted(points)


def fraction_weyl_dimension(shape, r: int) -> int:
    """Weyl dimension as a running product of Fractions (r + content) / hook."""
    shape = normalize(shape)
    if len(shape) > r:
        return 0
    num = Fraction(1)
    for i in range(len(shape)):
        for j in range(shape[i]):
            leg = sum(1 for k in range(i + 1, len(shape)) if shape[k] > j)
            num *= Fraction(r + j - i, shape[i] - j + leg)
    if num.denominator != 1:
        raise AssertionError(f"non-integer dimension {num}")
    return int(num)


def brute_monomial_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def peel_schur(weights: dict, p: int) -> dict:
    """Decompose a symmetric weight multiset into Schur terms by peeling."""
    remaining = dict(weights)
    out: dict = {}
    while True:
        dominant = None
        for exps, coeff in remaining.items():
            if coeff and tuple(sorted(exps, reverse=True)) == exps:
                if dominant is None or exps > dominant:
                    dominant = exps
        if dominant is None:
            break
        coeff = remaining[dominant]
        out[normalize(dominant)] = coeff
        schur = bialternant_schur(normalize(dominant), p)
        for exps, c in schur.items():
            remaining[exps] = remaining.get(exps, 0) - coeff * c
            if not remaining[exps]:
                del remaining[exps]
    if remaining:
        raise AssertionError(f"nonsymmetric residue: {remaining}")
    return out


# --------------------------------------------------------------- coefficients

# The coset test the package ran before it read the ties from the value
# sequence: the runs of equal values become position blocks, the blocks are
# checked to partition 1..m into runs of consecutive positions, and w is then
# tested block by block.


def value_blocks(values: Sequence[int]) -> list[list[int]]:
    """Runs of equal values as 1-based position blocks."""
    blocks: list[list[int]] = []
    for pos, val in enumerate(values, start=1):
        if blocks and values[pos - 2] == val:
            blocks[-1].append(pos)
        else:
            blocks.append([pos])
    return blocks


def is_minimal_coset_rep(w: Permutation, blocks: Sequence[Sequence[int]]) -> bool:
    """True when w is increasing on every block of consecutive positions.

    ``blocks`` must partition 1..m for some m at least as large as every point
    moved by w.
    """
    flat = [i for block in blocks for i in block]
    if sorted(flat) != list(range(1, len(flat) + 1)):
        raise ValueError(f"blocks do not partition an initial segment: {blocks}")
    for block in blocks:
        b = list(block)
        if b != sorted(b):
            raise ValueError(f"block positions not increasing: {b}")
        if b and b != list(range(b[0], b[-1] + 1)):
            raise ValueError(f"block not a run of consecutive positions: {b}")
    if w.n > len(flat):
        raise ValueError(f"w moves {w.n} points but blocks cover only {len(flat)}")
    for block in blocks:
        imgs = [w(i) for i in block]
        if any(imgs[k] > imgs[k + 1] for k in range(len(imgs) - 1)):
            return False
    return True


def reference_require_minimal(w: Permutation, blocks: Sequence[Sequence[int]], role: str) -> None:
    """Raise MinimalityError unless w is minimal in its coset for blocks."""
    if not is_minimal_coset_rep(w, blocks):
        raise MinimalityError(
            f"{role} is not increasing on the tied blocks {[list(b) for b in blocks]}"
        )


# The route the package took before it summed Monk chains: expand S_w at the
# linear forms of the induced spectrum into a polynomial in r variables, then
# apply the divided difference of v and read off the constant.


def reference_coefficient(a, nu, r: int, v: Permutation, w: Permutation) -> int:
    a = tuple(int(x) for x in a)
    if len(a) != r:
        raise ValueError(f"test spectrum has {len(a)} entries, expected r={r}")
    nu = normalize(nu)
    reference_require_minimal(v, value_blocks(a), "v")
    spectrum = reference_induced_spectrum(a, nu)
    dim = len(spectrum)
    if w.n > dim:
        raise ValueError(f"w moves {w.n} points but the induced spectrum has {dim}")
    reference_require_minimal(w, value_blocks([e.value for e in spectrum]), "w")
    if v.length() != w.length():
        return 0

    schubert = grassmannian_schubert(w)
    if schubert is None:
        schubert = schubert_polynomial(w)
    forms = [content_vector(e.tableau, r) for e in spectrum[: schubert.nvars]]
    specialized = schubert.substitute_linear(forms, r)
    result = divided_difference_word(v, specialized)
    if not result.is_constant():
        raise AssertionError("specialized Schubert class did not reduce to a constant")
    return result.constant_coefficient()


# The engine ``coefficient`` ran on before it read tableaux from one cache
# per (shape, levels): the spectrum enumerates its tableaux on every call and
# sorts on (-value, reading word), and the Monk chain sum tests each new
# permutation against v by building its whole rank table.


def reference_induced_spectrum(a, nu) -> list[SpectrumEntry]:
    a = tuple(int(x) for x in a)
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
        raise ValueError(f"test spectrum not weakly decreasing: {a}")
    entries = [
        SpectrumEntry(sum(a[t - 1] for row in tab for t in row), tab)
        for tab in enumerate_ssyt(normalize(nu), len(a))
    ]
    entries.sort(key=lambda e: (-e.value, reading_word(e.tableau)))
    return entries


def _reference_rank_table(u: tuple[int, ...]) -> tuple[int, ...]:
    counts = [0] * len(u)
    table: list[int] = []
    for image in u[:-1]:
        for k in range(image):
            counts[k] += 1
        table.extend(counts)
    return tuple(table)


def reference_bruhat_leq(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """u <= v in Bruhat order, by comparing the whole rank tables."""
    return all(map(int.__le__, _reference_rank_table(u), _reference_rank_table(v)))


def _reference_monk_steps(u: tuple[int, ...], alpha):
    n = len(u)
    for i in range(n - 1):
        ceiling = n + 1
        for j in range(i + 1, n):
            if u[i] < u[j] < ceiling:
                ceiling = u[j]
                coeff = alpha[i] - alpha[j]
                if coeff:
                    step = list(u)
                    step[i], step[j] = u[j], u[i]
                    yield tuple(step), coeff


def reference_monk_coefficient(poly: SparsePoly, forms, v: Permutation, r: int) -> int:
    forms = [tuple(int(c) for c in vec) for vec in forms]
    if any(len(vec) != r for vec in forms):
        raise ValueError("linear form has wrong arity")
    if v.n > r:
        raise ValueError(f"v moves {v.n} points but the forms have {r} variables")
    degree = v.length()
    top = v.one_line(r)
    below: dict[tuple[int, ...], bool] = {}
    total = 0
    for exps, coeff in poly.terms.items():
        if sum(exps) != degree:
            raise ValueError(f"term {exps} is not of degree l(v) = {degree}")
        layer = {tuple(range(1, r + 1)): coeff}
        for k, e in enumerate(exps):
            if e and k >= len(forms):
                raise ValueError(f"no form supplied for variable x{k + 1}")
            for _ in range(e):
                out: dict[tuple[int, ...], int] = {}
                for u, c in layer.items():
                    for step, weight in _reference_monk_steps(u, forms[k]):
                        keep = below.get(step)
                        if keep is None:
                            keep = below[step] = reference_bruhat_leq(step, top)
                        if keep:
                            out[step] = out.get(step, 0) + c * weight
                layer = {u: c for u, c in out.items() if c}
        total += layer.get(top, 0)
    return total


# ----------------------------------------------------------------- geometry


def random_rational_points(rng, count: int, dim: int, denom: int = 4):
    pts = []
    for _ in range(count):
        pts.append(
            tuple(
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, denom + 1)))
                for _ in range(dim)
            )
        )
    return pts


# The integer helpers of the row-by-row double description below, frozen as
# the package had them before it simplified its own: this echelon form
# re-sorts and re-reduces the whole basis after every vector, and this
# reduction accepts pivots of either sign.


def _scale_to_int(row: Sequence) -> IntVec:
    """Clear denominators and divide by the content; zero rows stay zero."""
    fracs = [Fraction(x) for x in row]
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _primitive(vec: Iterable[int]) -> IntVec:
    vec = tuple(vec)
    g = gcd(*vec)
    if g > 1:
        vec = tuple(v // g for v in vec)
    return vec


def _dot(a: IntVec, v: IntVec) -> int:
    return sum(x * y for x, y in zip(a, v))


def _echelon(vectors: Iterable[IntVec]) -> list[IntVec]:
    """Reduced integer basis, sorted by pivot position, pivots positive."""
    basis: list[IntVec] = []
    for vec in vectors:
        vec = _reduce_mod(vec, basis)
        if any(vec):
            pivot = next(i for i, x in enumerate(vec) if x)
            if vec[pivot] < 0:
                vec = tuple(-x for x in vec)
            basis.append(vec)
            basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
            reduced = []
            for b in basis:
                others = [c for c in basis if c is not b]
                reduced.append(_reduce_mod_keep_sign(b, others))
            basis = reduced
    return basis


def _reduce_mod(vec: IntVec, basis: Sequence[IntVec]) -> IntVec:
    """Zero out the pivot coordinates of vec; only positive rescaling is used."""
    vec = tuple(vec)
    for b in basis:
        pivot = next(i for i, x in enumerate(b) if x)
        if vec[pivot]:
            scale = abs(b[pivot])
            factor = vec[pivot] if b[pivot] > 0 else -vec[pivot]
            vec = tuple(scale * x - factor * y for x, y in zip(vec, b))
    return _primitive(vec)


def _reduce_mod_keep_sign(vec: IntVec, basis: Sequence[IntVec]) -> IntVec:
    reduced = _reduce_mod(vec, basis)
    pivot = next(i for i, x in enumerate(reduced) if x)
    if reduced[pivot] < 0:
        reduced = tuple(-x for x in reduced)
    return reduced


# The row-by-row double description the package used before it learned to
# skip implied rows: every inequality, redundant or not, goes through the
# pivot/split step, and hull rows are built from Fraction points.


def reference_cone_dual(
    equations: Sequence[Sequence],
    inequalities: Sequence[Sequence],
    dim: int,
    ray_cap: int = RAY_CAP,
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : e.x = 0 for all e, a.x >= 0}.

    Equations are eliminated first by pivoting inside the lineality space;
    inequalities are then inserted in sorted order with the standard double
    description step, using bitmasks over inequality indices for the
    adjacency test.
    """
    eq_rows = [r for r in (_scale_to_int(e) for e in equations) if any(r)]
    ineq_rows = sorted({r for r in (_scale_to_int(a) for a in inequalities) if any(r)})
    lineality: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IntVec, int]] = []

    def pivot(a: IntVec, l0: IntVec, d0: int, new_bit: int | None, prior_mask: int):
        nonlocal lineality, rays
        new_lin = []
        for l in lineality:
            if l is l0:
                continue
            d = _dot(a, l)
            if d:
                l = _primitive(tuple(d0 * x - d * y for x, y in zip(l, l0)))
            new_lin.append(l)
        lineality = new_lin
        new_rays = []
        for vec, zs in rays:
            d = _dot(a, vec)
            if d:
                comb = tuple(d0 * x - d * y for x, y in zip(vec, l0))
                if d0 < 0:
                    comb = tuple(-x for x in comb)
                vec = _primitive(comb)
            if new_bit is not None:
                zs |= new_bit
            new_rays.append((vec, zs))
        rays = new_rays
        if new_bit is not None:
            r0 = l0 if d0 > 0 else tuple(-x for x in l0)
            rays.append((_primitive(r0), prior_mask))

    def split(a: IntVec, new_bit: int | None):
        nonlocal rays
        pos, zero, neg = [], [], []
        for vec, zs in rays:
            d = _dot(a, vec)
            if d > 0:
                pos.append((vec, zs, d))
            elif d < 0:
                neg.append((vec, zs, d))
            else:
                zero.append((vec, zs | new_bit if new_bit is not None else zs))
        combos = []
        for pv, pz, pd in pos:
            for nv, nz, nd in neg:
                common = pz & nz
                blocked = False
                for vec, zs in rays:
                    if vec is pv or vec is nv:
                        continue
                    if common & zs == common:
                        blocked = True
                        break
                if blocked:
                    continue
                comb = _primitive(tuple(pd * x - nd * y for x, y in zip(nv, pv)))
                combos.append((comb, common | new_bit if new_bit is not None else common))
        if new_bit is None:
            rays = zero + combos
        else:
            rays = [(v, z) for v, z, _ in pos] + zero + combos
        if len(rays) > ray_cap:
            raise ResourceLimitError(f"ray count {len(rays)} exceeds cap {ray_cap}")

    for a in eq_rows:
        l0 = next((l for l in lineality if _dot(a, l)), None)
        if l0 is not None:
            pivot(a, l0, _dot(a, l0), None, 0)
        else:
            split(a, None)

    nbits = 0
    for a in ineq_rows:
        bit = 1 << nbits
        prior = bit - 1
        nbits += 1
        l0 = next((l for l in lineality if _dot(a, l)), None)
        if l0 is not None:
            pivot(a, l0, _dot(a, l0), bit, prior)
        else:
            split(a, bit)

    basis = _echelon(lineality)
    seen = set()
    out_rays = []
    for vec, _ in rays:
        red = _reduce_mod(vec, basis)
        if any(red) and red not in seen:
            seen.add(red)
            out_rays.append(red)
    return sorted(out_rays), basis


# The rational-matrix reader the package used before it read numerators and
# denominators straight into int64: both are read through the public
# properties into object arrays, and a matrix too large for int64 keeps
# whatever integer type each numerator had, numpy ints included.


def reference_row_matrix(entries: list, width: int) -> np.ndarray:
    """The distinct primitive integer rows of a rational matrix, in lexicographic order.

    ``entries`` holds the matrix row by row, ``width`` entries a row.  The
    matrix is int64 when max|numerator| * lcm(denominators) fits and
    dtype=object otherwise.
    """
    if not all(issubclass(t, (int, Fraction)) for t in set(map(type, entries))):
        entries = [_exact(x) for x in entries]
    nums = np.fromiter(map(attrgetter("numerator"), entries), dtype=object, count=len(entries))
    dens = np.fromiter(map(attrgetter("denominator"), entries), dtype=object, count=len(entries))
    num_max = max(nums.max(initial=0), -nums.min(initial=0))
    dtype = _entry_dtype(int(num_max) * lcm(*set(dens)))
    rows = nums.astype(dtype).reshape(-1, width)
    dens = dens.astype(dtype).reshape(-1, width)
    rows *= np.lcm.reduce(dens, axis=1)[:, None] // dens
    rows //= np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = rows.any(axis=1)
    keep[1:] &= (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


# The int64 reader the package used before it read in blocks: one
# ``np.fromiter`` pass over ``attrgetter`` of every entry for the numerators
# and one for the denominators, after one type check over the whole
# matrix; the lcm and gcd reduced along each row; and ``np.lexsort`` over
# the columns.


def attrgetter_row_matrix(rows: Sequence[Sequence], width: int, lead: bool = False) -> np.ndarray:
    """The distinct primitive integer rows of a rational matrix, in lexicographic order.

    Each row has ``width`` entries; ``lead`` puts a 1 before each, so points
    become the rows (den, x1*den, ...) of their homogenization.  Each row is
    scaled by the lcm of its denominators and divided by the gcd of the
    result; zero rows are dropped and the rest come out in the order
    ``sorted(set(rows))`` gives.  Numerators, then denominators, are read in
    one pass each straight into int64: through the ``_numerator`` and
    ``_denominator`` slots (C-level, where the public properties run Python
    code) when every entry is exactly a ``Fraction``, through the properties
    for other ints and Fractions, and after ``_exact`` for anything else.
    The matrix is int64 when max|numerator| * lcm(denominators), the leading
    1 included, fits; otherwise it holds Python ints (dtype=object), read
    again through ``int()`` so that numpy-int numerators cannot wrap.  Every
    scaled entry, and every lcm on the way, is bounded by that product.
    """
    n = len(rows)
    types = set(map(type, itertools.chain.from_iterable(rows)))
    if types <= {Fraction}:
        attrs = ("_numerator", "_denominator")
    else:
        attrs = ("numerator", "denominator")
        if not all(issubclass(t, (int, Fraction)) for t in types):
            rows = [[_exact(x) for x in row] for row in rows]
    try:
        nums, dens = (
            np.fromiter(map(attrgetter(a), itertools.chain.from_iterable(rows)), np.int64, n * width) for a in attrs
        )
    except OverflowError:
        dtype = object
    else:
        num_max = max(int(nums.max(initial=0)), -int(nums.min(initial=0)), lead)
        dtype = _entry_dtype(num_max * _lcm_int64(dens))
    if dtype is object:
        nums, dens = (
            np.fromiter(map(int, map(attrgetter(a), itertools.chain.from_iterable(rows))), object, n * width)
            for a in attrs
        )
    nums, dens = nums.reshape(n, width), dens.reshape(n, width)
    scale = np.lcm.reduce(dens, axis=1, initial=1)
    np.floor_divide(scale[:, None], dens, out=dens)
    nums *= dens
    del dens
    if lead:
        nums = np.column_stack((scale, nums))
    nums //= np.maximum(np.gcd.reduce(nums, axis=1), 1)[:, None]
    nums = nums[np.lexsort(nums.T[::-1])]
    keep = nums.any(axis=1)
    keep[1:] &= (nums[1:] != nums[:-1]).any(axis=1)
    return nums[keep]


# The block reader the package used before it read small slot values one
# byte each: every block's numerators and denominators go through
# ``np.fromiter``, the slot values of an exact ``Fraction`` block too.


def fromiter_read_entries(rows: Sequence[Sequence], width: int, lead: bool, dtype=np.int64, block_rows: int = 2048):
    """Numerators and denominators of a rational matrix, one column per row, and whether all were reduced.

    As ``polytope._read_entries``: the (lead + width, n) numerators, their
    first ``lead`` row 1s, the (width, n) denominators, entry j of row i at
    column i, read ``block_rows`` rows at a time.
    """
    n = len(rows)
    nums = np.empty((lead + width, n), dtype)
    nums[:lead] = 1
    dens = np.empty((width, n), dtype)
    reduced = True
    for start in range(0, n, block_rows):
        block = rows[start : start + block_rows]
        stop, size = start + len(block), len(block) * width
        num = [x._numerator for row in block for x in row if type(x) is Fraction]
        if len(num) == size:
            den = [x._denominator for row in block for x in row]
        else:
            entries = list(itertools.chain.from_iterable(block))
            types = set(map(type, entries))
            if not all(issubclass(t, (int, Fraction)) for t in types):
                entries = [_exact(x) for x in entries]
                types = set(map(type, entries))
            reduced = reduced and types <= {int, Fraction}
            num, den = map(attrgetter("numerator"), entries), map(attrgetter("denominator"), entries)
        if dtype is object:
            num, den = map(int, num), map(int, den)
        nums[lead:, start:stop] = np.fromiter(num, dtype, size).reshape(stop - start, width).T
        dens[:, start:stop] = np.fromiter(den, dtype, size).reshape(stop - start, width).T
    return nums, dens, reduced


# The forward scan the package used before it galloped: every block holds
# 512 rows, and a row is live when a product with a lineality vector is
# nonzero or one with a ray is negative.  Its pivot and split steps are the
# package's own.

FIXED_SCAN_BLOCK = 512


class FixedBlockCone(_Cone):
    """A ``polytope._Cone`` whose insert reads the rows in fixed blocks of FIXED_SCAN_BLOCK."""

    def insert(self, pending: np.ndarray) -> None:
        n_rows = len(pending)
        row_max = int(np.abs(pending).max(initial=0))
        pos = 0
        while pos < n_rows and (self.lineality or self.rays):
            n_lin = len(self.lineality)
            generators = _generators(self.lineality + [vec for vec, _ in self.rays], row_max)
            while pos < n_rows:
                block = _products(pending[pos : pos + FIXED_SCAN_BLOCK], generators)
                live = (block[:, :n_lin] != 0).any(axis=1) | (block[:, n_lin:] < 0).any(axis=1)
                if live.any():
                    break
                pos += len(block)
            else:
                break
            first = int(live.argmax())
            ds = list(map(int, block[first].tolist()))
            self.rows.append(tuple(pending[pos + first].tolist()))
            pos += first + 1
            if any(ds[:n_lin]):
                self._pivot(ds[:n_lin], ds[n_lin:])
            else:
                self._split(ds[n_lin:], n_rows)


# The product the package's double description used before it ran in
# float64: int64, which numpy multiplies without BLAS, when the bound fits,
# and Python ints past it, with the generator matrix built on every call.


def reference_products(pending: np.ndarray, row_max: int, gens: list[IntVec]) -> np.ndarray:
    """The matrix of a.g for every pending row a and generator g.

    The product is exact: int64 when max|row| * max|generator| * dim fits,
    Python ints otherwise.
    """
    gen_max = max(map(abs, itertools.chain.from_iterable(gens)))
    dtype = _entry_dtype(row_max * gen_max * pending.shape[1])
    return pending.astype(dtype, copy=False) @ np.array(gens, dtype=dtype).T


# The double description the package used before its forward scan: before
# each insertion one product takes every remaining row against the cone,
# and the rows the cone implies are dropped by copying the rest.


def full_product_cone_dual(
    equations: Iterable[Sequence],
    inequalities: Iterable[Sequence] | np.ndarray,
    dim: int,
    ray_cap: int = RAY_CAP,
    inserted: list | None = None,
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : e.x = 0 for all e, a.x >= 0}.

    A numpy matrix is used as it is; other rows go through ``reference_row_matrix``.
    Each inserted row is appended to ``inserted`` when it is given.
    """
    pending = inequalities
    if not isinstance(pending, np.ndarray):
        rows = list(pending)
        if any(len(row) != dim for row in rows):
            raise ValueError(f"cone_dual: every inequality needs {dim} entries")
        pending = reference_row_matrix(list(itertools.chain.from_iterable(rows)), dim)
    equations = list(equations)
    if any(len(row) != dim for row in equations):
        raise ValueError(f"cone_dual: every equation needs {dim} entries")
    n_rows = len(pending)
    row_max = int(np.abs(pending).max(initial=0))
    lineality: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IntVec, int]] = []
    nbits = 0

    def pivot(lin_ds: list[int], ray_ds: list[int], new_bit: int):
        nonlocal lineality, rays
        lineality, l0, d0 = _restrict(lineality, lin_ds)
        new_rays = []
        for (vec, zs), d in zip(rays, ray_ds):
            if d:
                comb = tuple(d0 * x - d * y for x, y in zip(vec, l0))
                if d0 < 0:
                    comb = tuple(-x for x in comb)
                vec = _primitive(comb)
            new_rays.append((vec, zs | new_bit))
        rays = new_rays
        rays.append((l0 if d0 > 0 else tuple(-x for x in l0), new_bit - 1))

    def split(ray_ds: list[int], new_bit: int):
        nonlocal rays
        pos, zero, neg = [], [], []
        for (vec, zs), d in zip(rays, ray_ds):
            if d > 0:
                pos.append((vec, zs, d))
            elif d < 0:
                neg.append((vec, zs, d))
            else:
                zero.append((vec, zs | new_bit))
        combos = []
        for pv, pz, pd in pos:
            for nv, nz, nd in neg:
                common = pz & nz
                blocked = False
                for vec, zs in rays:
                    if vec is pv or vec is nv:
                        continue
                    if common & zs == common:
                        blocked = True
                        break
                if blocked:
                    continue
                comb = _primitive(tuple(pd * x - nd * y for x, y in zip(nv, pv)))
                combos.append((comb, common | new_bit))
        rays = [(v, z) for v, z, _ in pos] + zero + combos
        if len(rays) > ray_cap:
            raise ResourceLimitError(
                f"cone_dual: ray count {len(rays)} exceeds cap {ray_cap} after inserting "
                f"{nbits} of {n_rows} inequalities (dim {dim})"
            )

    for a in map(_scale_to_int, equations):
        ds = [_dot(a, l) for l in lineality]
        if any(ds):
            lineality = _restrict(lineality, ds)[0]

    while len(pending) and (lineality or rays):
        products = reference_products(pending, row_max, lineality + [vec for vec, _ in rays])
        n_lin = len(lineality)
        live = (products[:, :n_lin] != 0).any(axis=1) | (products[:, n_lin:] < 0).any(axis=1)
        if not live.any():
            break
        first = int(live.argmax())
        ds = products[first].tolist()
        if inserted is not None:
            inserted.append(tuple(pending[first].tolist()))
        del products
        live[first] = False
        pending = pending[live]
        bit = 1 << nbits
        nbits += 1
        if any(ds[:n_lin]):
            pivot(ds[:n_lin], ds[n_lin:], bit)
        else:
            split(ds[n_lin:], bit)

    basis = _echelon(lineality)
    seen = set()
    out_rays = []
    for vec, _ in rays:
        red = _reduce_mod(vec, basis)
        if any(red) and red not in seen:
            seen.add(red)
            out_rays.append(red)
    return sorted(out_rays), basis


def reference_vertices_from_h(
    dim: int,
    equations: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]],
) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of {x : eq, ineq} via the homogenization cone; errors if unbounded."""
    eq_rows = [(-b,) + tuple(a) for a, b in equations]
    ineq_rows = [(b,) + tuple(-x for x in a) for a, b in inequalities]
    ineq_rows.append((1,) + (0,) * dim)
    rays, lin = reference_cone_dual(eq_rows, ineq_rows, dim + 1)
    if lin:
        raise ValueError("system is unbounded (contains a line)")
    vertices = []
    for ray in rays:
        if ray[0] == 0:
            raise ValueError("system is unbounded (recession direction)")
        vertices.append(tuple(Fraction(x, ray[0]) for x in ray[1:]))
    return tuple(sorted(set(vertices)))


# The per-point row builder the package used before hull built its integer
# matrix with numpy: one Python tuple per point.


def reference_point_row(point: Sequence) -> IntVec:
    """The primitive integer row (den, x1*den, ...), den the lcm of the denominators."""
    pairs = [(x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio() for x in point]
    den = math.lcm(*[d for _, d in pairs])
    return (den, *[n * (den // d) for n, d in pairs])


def reference_hull(points: Sequence[Sequence]) -> Polytope:
    """Convex hull with exact facets, equations, and vertices.

    Works in the dual: each point p contributes the constraint c0 + c.p >= 0
    on affine functionals (c0, c); lineality directions of that cone are the
    equations of the hull and extreme rays are its facets.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points have mixed arity")
    rows = [(Fraction(1),) + p for p in set(pts)]
    rays, lin = reference_cone_dual([], rows, dim + 1)

    equations = []
    for l in lin:
        coeffs, c0 = l[1:], l[0]
        if not any(coeffs):
            raise AssertionError("hull produced a contradictory equation")
        a, b = coeffs, -c0
        if next(x for x in a if x) < 0:
            a, b = tuple(-x for x in a), -b
        equations.append((a, b))

    facets = []
    for ray in rays:
        coeffs, c0 = ray[1:], ray[0]
        # a facet is tight at some point; a ray tight at none is not a facet
        if all(c0 + sum(c * x for c, x in zip(coeffs, p)) for p in pts):
            continue
        facets.append((tuple(-x for x in coeffs), c0))
    eqs = tuple(sorted(set(equations)))
    fac = tuple(sorted(set(facets)))
    vertices = reference_vertices_from_h(dim, eqs, fac)
    return Polytope(dim, eqs, fac, vertices)


# The decomposition of a sparse character as the package had it before every
# character reached ``_decompose_lattice`` as a ``LatticeCharacter``: the
# dominant weights of the support, tested by the direct Weyl alternation,
# whose terms are looked up by binary search over the sorted flat keys of
# the terms, through a gather callback.


def _alternate(coords, offsets, signs, box, strides, gather) -> np.ndarray:
    """Weyl alternation sums sum_w sign(w) f(coords + offset(w)), one per row of coords.

    The package's former direct route: every row meets the whole orbit, and
    a term whose key falls outside the box is masked to zero after it is
    built.  ``box`` is the shape the coordinates index into, ``strides`` its flat
    index steps, and ``gather`` maps flat indices to multiplicities, with -1
    for a key outside the box.  The (rows, orbit) index array is built in
    blocks of at most _GATHER_BLOCK entries, which bounds the memory of a
    large orbit.
    """
    base = coords @ strides
    shift = offsets @ strides
    rows = max(1, _GATHER_BLOCK // len(offsets))
    parts = []
    for start in range(0, len(coords), rows):
        block = coords[start : start + rows]
        valid = np.ones((len(block), len(offsets)), dtype=bool)
        for axis, n in enumerate(box):
            key = block[:, axis, None] + offsets[None, :, axis]
            valid &= (key >= 0) & (key < n)
        flat = np.where(valid, base[start : start + rows, None] + shift, -1)
        parts.append((gather(flat) * signs).sum(axis=1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _decompose_sparse(f: SparsePoly):
    """The same for a sparse character: keys are looked up by binary search.

    It keeps the direct route.  In the package its inputs were the subset-sum
    products of ``generators``' second-kind expansion, on a few variables.
    """
    r = f.nvars
    weights = list(f.terms)
    dominant = [wt for wt in weights if all(wt[i] >= wt[i + 1] for i in range(r - 1))]
    full = np.array(dominant, dtype=np.int64).reshape(-1, r)
    offsets, signs = reference_signed_delta_orbit((r,))
    box = (max((max(wt) for wt in weights), default=0) + 1,) * r
    # each alternation sum has |orbit| terms of absolute value at most max |mult|
    bound = len(signs) * max((abs(m) for m in f.terms.values()), default=0)
    strides = np.array(_strides(box), dtype=_entry_dtype(prod(box)))
    codes = np.array(weights, dtype=np.int64).reshape(-1, r) @ strides
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    values = np.array(list(f.terms.values()), dtype=_entry_dtype(bound))[order]

    def gather(idx):
        pos = np.minimum(np.searchsorted(codes, idx), len(codes) - 1)
        return np.where(codes[pos] == idx, values[pos], 0)

    return full, _alternate(full, offsets, signs, box, strides, gather)


# The pipeline's inner path as the package had it before its decomposition
# and equality check went integer: each degree is decomposed into a dict
# checked by one Weyl dimension per key, each point coordinate is a Fraction
# of its own, and equality is checked with Fraction sums.  The Newton
# recurrence, the Weyl alternation and the double description are the
# package's own; the alternation is ``_decompose_lattice``'s, direct or pruned
# as the package chooses per degree (tests/test_alternation_routes.py holds
# the two routes to each other).  A sparse character takes the frozen
# ``_decompose_sparse`` above, whole, where the package lays it out as one
# ``LatticeCharacter`` per degree.


def reference_schur_decompose(f: SparsePoly | LatticeCharacter) -> dict:
    """Highest weights and multiplicities, checked key by key against the dimension."""
    if isinstance(f, LatticeCharacter):
        groups = f.groups
        dimension = f.dimension()
        full, mults = _decompose_lattice(f)
    else:
        groups = (f.nvars,)
        dimension = sum(f.terms.values())
        full, mults = _decompose_sparse(f)
    if (mults < 0).any():
        bad = int(np.flatnonzero(mults < 0)[0])
        raise ValueError(
            f"negative multiplicity {mults[bad]} at {tuple(full[bad].tolist())}: not a character"
        )
    result: dict = {}
    bounds = list(itertools.accumulate((0,) + groups))
    for idx in np.flatnonzero(mults).tolist():
        row = full[idx].tolist()
        parts = tuple(normalize(row[a:b]) for a, b in zip(bounds, bounds[1:]))
        result[parts[0] if len(parts) == 1 else parts] = int(mults[idx])
    total = 0
    for key, mult in result.items():
        parts = (key,) if len(groups) == 1 else key
        total += mult * math.prod(weyl_dimension(p, g) for p, g in zip(parts, groups))
    if total != dimension:
        raise ValueError("component dimensions do not sum to the character dimension")
    return result


def reference_inner_points(
    nu,
    r: int,
    rank_bound: int,
    m_cap: int,
    level_cap: int = INNER_POINT_LEVEL_CAP,
    degree_cap: int = INNER_POINT_DEGREE_CAP,
) -> list:
    """Sorted normalized points (lam / m, mu / m) of the components up to degree m_cap."""
    nu = normalize(nu)
    if r > level_cap:
        raise ResourceLimitError(f"inner_points: r={r} exceeds the level cap {level_cap}")
    if size(nu) * m_cap > degree_cap:
        raise ResourceLimitError(
            f"inner_points: |nu| * M = {size(nu) * m_cap} exceeds the degree cap {degree_cap}"
        )
    if rank_bound < 1:
        raise ValueError("rank bound must be at least 1")
    series = plethysm_h_series(m_cap, character(nu, r), rank_bound)
    scale = math.lcm(*range(1, m_cap + 1))
    keys: set[tuple[int, ...]] = set()
    for m in range(1, m_cap + 1):
        step = scale // m
        for hw in reference_schur_decompose(series[m]):
            lam, mu = (hw, (m,)) if rank_bound == 1 else hw
            padded = lam + (0,) * (r - len(lam)) + mu + (0,) * (rank_bound - len(mu))
            keys.add(tuple(x * step for x in padded))
    return [
        (
            tuple(Fraction(x, scale) for x in key[:r]),
            tuple(Fraction(x, scale) for x in key[r:]),
        )
        for key in sorted(keys)
    ]


# The row builder ``inner_points(rows=True)`` used before it built its rows
# degree by degree: every point times lcm(1..M) as one integer tuple key in
# a set, read back into the hull's row matrix by ``_key_rows``.


def _key_rows(keys: set[tuple[int, ...]], scale: int, width: int) -> np.ndarray:
    """``_row_matrix``'s rows of the points key[:width] / scale: (scale, key[:width]) / gcd, sorted.

    Entry x is x / scale = n / d in lowest terms, d = scale / gcd(x, scale),
    so the dtype follows the bound max(1, max n) * lcm(d), and lcm(d) =
    scale / gcd(scale, every x).  The nonnegative integer keys are read in
    int64 unless their largest entry is past it.
    """
    values = set().union(*keys)
    top = max((x // gcd(x, scale) for x in values), default=0)
    dtype = _entry_dtype(max(top, 1) * (scale // gcd(scale, *values)))
    length = len(next(iter(keys))) if keys else width
    read = _entry_dtype(max(values, default=0))
    flat = np.fromiter(itertools.chain.from_iterable(keys), read, len(keys) * length)
    columns = np.empty((width + 1, len(keys)), dtype=read)
    columns[0] = scale
    columns[1:] = flat.reshape(len(keys), length).T[:width]
    columns //= np.gcd.reduce(columns, axis=0)
    return _sorted_rows(columns.astype(dtype, copy=False))


def key_inner_rows(
    nu,
    r: int,
    rank_bound: int,
    m_cap: int,
    level_cap: int = INNER_POINT_LEVEL_CAP,
    degree_cap: int = INNER_POINT_DEGREE_CAP,
    *,
    series: list | None = None,
) -> np.ndarray:
    """``inner_points(..., rows=True)`` by the key route: the scaled keys of every degree, then ``_key_rows``."""
    nu = normalize(nu)
    _check_request(nu, r, rank_bound, m_cap, level_cap, degree_cap)
    series = plethysm_h_series(m_cap, character(nu, r), rank_bound, series=series)
    scale = math.lcm(*range(1, m_cap + 1))
    keys: set[tuple[int, ...]] = set()
    for m in range(1, m_cap + 1):
        step = scale // m
        for hw in schur_decompose(series[m]):
            lam, mu = (hw, (m,)) if rank_bound == 1 else hw
            padded = lam + (0,) * (r - len(lam)) + mu + (0,) * (rank_bound - len(mu))
            keys.add(tuple(x * step for x in padded))
    return _key_rows(keys, scale, r if rank_bound == 1 else r + rank_bound)


def reference_polytopes_equal(p: Polytope, q: Polytope) -> bool:
    """Set equality via mutual vertex containment, by Fraction sums."""
    if p.dim != q.dim:
        return False
    return all(q.contains(v) for v in p.vertices) and all(p.contains(v) for v in q.vertices)


def reference_pipeline(
    nu,
    r: int,
    rank_bound: int,
    m_schedule: Sequence[int],
    level_cap: int = INNER_POINT_LEVEL_CAP,
    degree_cap: int = INNER_POINT_DEGREE_CAP,
    *,
    points_of=reference_inner_points,
    equal=reference_polytopes_equal,
) -> dict:
    """The inner-outer loop on the reference points and the Fraction equality check.

    Every cutoff computes its points afresh with ``points_of``; ``equal`` is
    the equality check.
    """
    nu = normalize(nu)
    n_particles = size(nu)
    mixed = rank_bound > 1
    d = r + (rank_bound if mixed else 0)
    ambient_eqs, ambient_ineqs = _ambient_system(r, n_particles, rank_bound)
    history = []
    converged_at = None
    inner = None
    report = None
    for m_cap in m_schedule:
        points = points_of(nu, r, rank_bound, m_cap, level_cap, degree_cap)
        coords = [lam + mu if mixed else lam for lam, mu in points]
        inner = hull(coords)
        report = facet_match(inner, nu, r, rank_bound)
        extra = [
            (tuple(e["lambda_coeffs"]) + tuple(e["mu_coeffs"]), e["bound"])
            for e in report["matched"]
        ]
        outer = polytope_from_h(d, ambient_eqs, ambient_ineqs + extra)
        converged = equal(inner, outer)
        history.append(
            {
                "M": m_cap,
                "points": len(coords),
                "vertices": len(inner.vertices),
                "facets": len(inner.facets),
                "equations": len(inner.equations),
                "matched": len(report["matched"]),
                "unmatched": len(report["unmatched"]),
                "converged": converged,
            }
        )
        if converged:
            converged_at = m_cap
            break
    return {
        "nu": list(nu),
        "r": r,
        "rank_bound": rank_bound,
        "converged_at": converged_at,
        "history": history,
        "polytope": inner,
        "match": report,
    }


def rebuild_pipeline(nu, r: int, rank_bound: int, m_schedule: Sequence[int], **caps) -> dict:
    """The package's pipeline as it was before one Newton series served a whole run.

    Every cutoff calls the package's ``inner_points`` without a series, so it
    builds and decomposes every degree from 1 again; the equality check is
    the package's.
    """
    return reference_pipeline(
        nu, r, rank_bound, m_schedule, points_of=inner_points, equal=polytopes_equal, **caps
    )


# ------------------------------------------------------- inequality families

# The closed-form and expanded Grassmann families, frozen as the package had
# them before one framed-family loop built both closed forms: each family has
# its own copy of the loop, and every violating state is checked by one
# helper.  The caps are the package's.


def _cgamma_kind1(gamma: Iterable[int], n_particles: int, r: int) -> int:
    """Coefficient of the width-(N-1) family member attached to gamma.

    Alternating sum over single-row strips: sum_k (-1)^k of the standard
    fillings of gamma with a row of k cells removed.
    """
    gamma = normalize(gamma)
    width = r - n_particles + 1
    if size(gamma) != width:
        raise ValueError(f"|gamma| must be {width} for r={r}, N={n_particles}")
    FramedDiagram(gamma, n_particles - 1, width).validate()
    return sum(
        (-1) ** k * count_skew_standard(gamma, (k,)) for k in range(size(gamma) + 1)
    )

def _cgamma_kind2(gamma: Iterable[int], n_particles: int) -> int:
    """Coefficient of the (N+1)-cell family member attached to gamma.

    Alternating sum over single-column strips: sum_k (-1)^k of the standard
    fillings of gamma with a column of k cells removed.
    """
    gamma = normalize(gamma)
    if size(gamma) != n_particles + 1:
        raise ValueError(f"|gamma| must be {n_particles + 1}")
    return sum(
        (-1) ** k * count_skew_standard(gamma, (1,) * k) for k in range(size(gamma) + 1)
    )

def _certified_violation(
    gamma: Partition,
    indices: tuple[int, ...],
    bound: int,
    reason: str,
    state: WedgeState,
) -> ExcludedShape:
    occ = occupation_numbers(state)
    lhs = sum((occ[i - 1] for i in indices), Fraction(0))
    if lhs <= bound:
        raise AssertionError(f"claimed countermodel does not violate the bound: {lhs}")
    return ExcludedShape(gamma, indices, bound, reason, state, lhs)


def reference_grassmann_kind1(n_particles: int, r: int) -> InequalityFamily:
    """All bound-(N-2) inequalities for N fermions on r levels.

    One candidate per partition of r - N + 1 inside the (N-1) x (r-N+1)
    frame; the item list keeps those with nonzero coefficient.  The single
    column and the odd-length single row vanish, and both are genuinely false,
    witnessed by explicit states.
    """
    N = int(n_particles)
    if r <= N:
        raise ValueError(f"need more levels than particles, got N={N}, r={r}")
    if N < 3:
        return InequalityFamily(
            kind="kind1",
            n_particles=N,
            items=(),
            levels=r,
            note="empty for fewer than 3 particles: the bound N-2 is below "
            "every attainable partial sum of this length",
        )
    width = r - N + 1
    items = []
    excluded = []
    for gamma in partitions_in_box(N - 1, width, total=width):
        framed = FramedDiagram(gamma, N - 1, width)
        indices = shuffle_vertical_sequence(framed)
        c = _cgamma_kind1(gamma, N, r)
        if c:
            items.append(OccupationInequality(indices, N - 2, gamma, c))
            continue
        if gamma == (1,) * width:
            excluded.append(
                _certified_violation(
                    gamma,
                    indices,
                    N - 2,
                    "vanishing coefficient; false already for one Slater determinant",
                    slater_determinant(N, r),
                )
            )
        elif len(gamma) == 1 and width % 2 == 1:
            excluded.append(
                _certified_violation(
                    gamma,
                    indices,
                    N - 2,
                    "vanishing coefficient; false for a core plus equal level pairs",
                    level_merged_state(N, (width + 1) // 2),
                )
            )
        else:
            excluded.append(
                ExcludedShape(gamma, indices, N - 2, "vanishing coefficient")
            )
    return InequalityFamily(
        kind="kind1",
        n_particles=N,
        items=tuple(items),
        excluded=tuple(excluded),
        levels=r,
    )


def _kind2_closed_form(N: int) -> tuple[list[OccupationInequality], list[ExcludedShape]]:
    items = []
    excluded = []
    for gamma in partitions_in_box(N + 1, N + 1, total=N + 1):
        framed = FramedDiagram(gamma, N + 1, N + 1)
        indices = shuffle_vertical_sequence(framed)
        c = _cgamma_kind2(gamma, N)
        if c:
            items.append(OccupationInequality(indices, N - 1, gamma, c))
            continue
        if len(gamma) == 1:
            excluded.append(
                _certified_violation(
                    gamma,
                    indices,
                    N - 1,
                    "vanishing coefficient; false already for one Slater determinant",
                    slater_determinant(N, 2 * N + 2),
                )
            )
        elif gamma == (1,) * (N + 1):
            excluded.append(
                _certified_violation(
                    gamma,
                    indices,
                    N - 1,
                    "vanishing coefficient; false for the flat pair superposition",
                    paired_flat_state(N),
                )
            )
        else:
            excluded.append(ExcludedShape(gamma, indices, N - 1, "vanishing coefficient"))
    return items, excluded


def _kind2_expansion(
    N: int, p: int, term_cap: int
) -> list[OccupationInequality]:
    degree = comb(p, N)
    estimate = comb(degree + p - 1, p - 1)
    if estimate > term_cap:
        raise ResourceLimitError(
            f"expanding the degree-{degree} product over {p} variables may need "
            f"{estimate} terms (cap {term_cap})"
        )
    product = SparsePoly.constant(p, 1)
    for subset in _subsets(p, N):
        product = product * SparsePoly.linear_form(
            [1 if k in subset else 0 for k in range(1, p + 1)]
        )
    items = []
    for gamma, mult in sorted(reference_schur_decompose(product).items()):
        framed = FramedDiagram(gamma, p, degree)
        indices = shuffle_vertical_sequence(framed)
        items.append(OccupationInequality(indices, N - 1, gamma, mult))
    return items


def _subsets(p: int, N: int):
    from itertools import combinations

    return combinations(range(1, p + 1), N)


def reference_grassmann_kind2(
    n_particles: int,
    p: int,
    width_cap: int = KIND2_WIDTH_CAP,
    term_cap: int = KIND2_TERM_CAP,
) -> InequalityFamily:
    """All bound-(N-1) inequalities from p-point subsets, for N particles.

    The product of the subset-sum forms over all N-element subsets of 1..p is
    decomposed into Schur components; every component gives an inequality on
    any number of levels.  For p = N + 1 the closed column-strip form of the
    coefficients is used and the two vanishing shapes come with violating
    states; other widths expand the product directly, behind a resource cap.
    """
    N = int(n_particles)
    if N < 1:
        raise ValueError("need at least one particle")
    if p < N:
        raise ValueError(f"need p >= N, got p={p}, N={N}")
    if p == N + 1:
        items, excluded = _kind2_closed_form(N)
        return InequalityFamily(
            kind="kind2",
            n_particles=N,
            items=tuple(items),
            excluded=tuple(excluded),
            frame_rows=p,
        )
    if p > width_cap:
        raise ResourceLimitError(f"p={p} exceeds the width cap {width_cap}")
    items = _kind2_expansion(N, p, term_cap)
    return InequalityFamily(
        kind="kind2",
        n_particles=N,
        items=tuple(items),
        excluded=(),
        frame_rows=p,
    )
