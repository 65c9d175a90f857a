"""Families of occupation-number inequalities with coefficient certificates.

Each emitted inequality says: the sum of the occupations at the listed sorted
positions is at most the bound.  An item carries the diagram it comes from and
the nonzero Schubert coefficient certifying it; shapes whose coefficient
vanishes are reported separately, with an explicit violating state when the
inequality is in fact false.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError, as_int
from .plethysm import LatticeCharacter, _entry_dtype, schur_decompose
from .states import (
    WedgeState,
    level_merged_state,
    occupation_numbers,
    paired_flat_state,
    slater_determinant,
)
from .tableaux import (
    FramedDiagram,
    Partition,
    _skew_standard,
    count_skew_standard,
    normalize,
    partitions_in_box,
    shuffle_vertical_sequence,
    size,
)

KIND2_WIDTH_CAP = 7
KIND2_TERM_CAP = 600_000


@dataclass(frozen=True)
class OccupationInequality:
    """sum of occupations at ``indices`` (1-based, sorted spectrum) <= bound."""

    indices: tuple[int, ...]
    bound: int
    gamma: Partition | None = None
    c_gamma: int | None = None

    def __post_init__(self):
        idx = [as_int(i, "occupation index") for i in self.indices]
        if any(a >= b for a, b in zip([0] + idx, idx)):
            raise ValueError(f"indices must be strictly increasing integers >= 1, got {self.indices}")
        as_int(self.bound, "bound")

    def coefficient_vector(self, r: int) -> tuple[int, ...]:
        if self.indices and self.indices[-1] > r:
            raise ValueError(f"index {self.indices[-1]} exceeds r={r}")
        return tuple(1 if i in set(self.indices) else 0 for i in range(1, r + 1))

    def holds_for(self, spectrum: Sequence) -> bool:
        return sum(spectrum[i - 1] for i in self.indices) <= self.bound


@dataclass(frozen=True)
class ExcludedShape:
    """A diagram with vanishing coefficient, optionally with a countermodel."""

    gamma: Partition
    indices: tuple[int, ...]
    bound: int
    reason: str
    state: WedgeState | None = None
    lhs: Fraction | None = None


@dataclass(frozen=True)
class InequalityFamily:
    kind: str
    n_particles: int
    items: tuple[OccupationInequality, ...]
    excluded: tuple[ExcludedShape, ...] = ()
    levels: int | None = None
    frame_rows: int | None = None
    trace: int | None = None
    note: str | None = None


def majorization_constraints(nu: Iterable[int], r: int) -> InequalityFamily:
    """Leading partial-sum bounds for the shape-nu system on r levels.

    The sorted occupations are dominated by nu itself, so the k-th partial sum
    is at most nu_1 + ... + nu_k; only k below the height of nu is
    informative once the trace is fixed.
    """
    nu = normalize(nu)
    r = as_int(r, "level count")
    if len(nu) > r:
        raise ValueError(f"shape {nu} needs more than {r} levels")
    items = []
    running = 0
    for k in range(1, len(nu)):
        running += nu[k - 1]
        items.append(OccupationInequality(tuple(range(1, k + 1)), running))
    return InequalityFamily(
        kind="majorization",
        n_particles=size(nu),
        items=tuple(items),
        levels=r,
        trace=size(nu),
    )


def _strip_sum(gamma: Partition, column: bool) -> int:
    """sum_k (-1)^k of the standard fillings of gamma with a strip of k cells removed.

    The strip is a row of k cells, or with ``column`` a column of k cells;
    gamma is canonical, and a strip fits in it up to its row count, or its
    first row.
    """
    longest = len(gamma) if column else (gamma[0] if gamma else 0)
    return sum(
        (-1) ** k * _skew_standard(gamma, (1,) * k if column else (k,) if k else ())
        for k in range(longest + 1)
    )


def cgamma_kind1(gamma: Iterable[int], n_particles: int, r: int) -> int:
    """Coefficient of the width-(N-1) family member attached to gamma.

    Alternating sum over single-row strips: sum_k (-1)^k of the standard
    fillings of gamma with a row of k cells removed.
    """
    gamma = normalize(gamma)
    width = r - n_particles + 1
    if size(gamma) != width:
        raise ValueError(f"|gamma| must be {width} for r={r}, N={n_particles}")
    FramedDiagram(gamma, n_particles - 1, width).validate()
    return _strip_sum(gamma, column=False)


def cgamma_kind1_positive(gamma: Iterable[int]) -> int:
    """Cancellation-free form of the width-(N-1) coefficient.

    Counts standard fillings of gamma minus a hook of an even row with one
    extra cell below.  Agrees with the alternating form except on single-row
    shapes.
    """
    gamma = normalize(gamma)
    total = 0
    i = 1
    while 2 * i <= size(gamma):
        total += count_skew_standard(gamma, (2 * i, 1))
        i += 1
    return total


def cgamma_kind1_recurrence(gamma: Iterable[int]) -> int:
    """Corner-removal recurrence for the width-(N-1) coefficient.

    Single rows are the base case: 1 for even length, 0 for odd.  For every
    other shape the coefficient is the sum over removals of one outer corner.
    """
    gamma = normalize(gamma)
    if len(gamma) <= 1:
        return 1 if size(gamma) % 2 == 0 else 0
    total = 0
    for i in range(len(gamma)):
        below = gamma[i + 1] if i + 1 < len(gamma) else 0
        if gamma[i] > below:
            total += cgamma_kind1_recurrence(
                normalize(gamma[:i] + (gamma[i] - 1,) + gamma[i + 1 :])
            )
    return total


def cgamma_kind2(gamma: Iterable[int], n_particles: int) -> int:
    """Coefficient of the (N+1)-cell family member attached to gamma.

    Alternating sum over single-column strips: sum_k (-1)^k of the standard
    fillings of gamma with a column of k cells removed.
    """
    gamma = normalize(gamma)
    if size(gamma) != n_particles + 1:
        raise ValueError(f"|gamma| must be {n_particles + 1}")
    return _strip_sum(gamma, column=True)


def cgamma_kind2_positive(gamma: Iterable[int]) -> int:
    """Cancellation-free form of the (N+1)-cell coefficient.

    Counts standard fillings of gamma minus a width-2 hook of odd column
    length.  Agrees with the alternating form except on single rows and
    single columns.
    """
    gamma = normalize(gamma)
    total = 0
    i = 1
    while 2 * i <= size(gamma):
        total += count_skew_standard(gamma, (2,) + (1,) * (2 * i - 1))
        i += 1
    return total


_SLATER = "vanishing coefficient; false already for one Slater determinant"


def _framed_family(
    rows: int, cols: int, bound: int, column: bool, witnesses: dict
) -> tuple[list[OccupationInequality], list[ExcludedShape]]:
    """Items and excluded shapes over the cols-cell shapes framed by a rows x cols box.

    The coefficient of a shape is its row-strip sum, or its column-strip sum
    with ``column``.  A shape with a nonzero coefficient gives an item; one
    whose coefficient vanishes is excluded.  When ``witnesses`` maps it to
    (reason, make_state), the state is built, checked to violate the bound,
    and recorded with its left-hand side.
    """
    items = []
    excluded = []
    for gamma in partitions_in_box(rows, cols, total=cols):
        indices = shuffle_vertical_sequence(FramedDiagram(gamma, rows, cols))
        c = _strip_sum(gamma, column)
        if c:
            items.append(OccupationInequality(indices, bound, gamma, c))
        elif gamma in witnesses:
            reason, make_state = witnesses[gamma]
            state = make_state()
            occ = occupation_numbers(state)
            lhs = sum((occ[i - 1] for i in indices), Fraction(0))
            if lhs <= bound:
                raise AssertionError(
                    f"claimed countermodel does not violate the bound: {lhs}"
                )
            excluded.append(ExcludedShape(gamma, indices, bound, reason, state, lhs))
        else:
            excluded.append(ExcludedShape(gamma, indices, bound, "vanishing coefficient"))
    return items, excluded


def grassmann_kind1(n_particles: int, r: int) -> InequalityFamily:
    """All bound-(N-2) inequalities for N fermions on r levels.

    One candidate per partition of r - N + 1 inside the (N-1) x (r-N+1)
    frame; the item list keeps those with nonzero coefficient.  The single
    column and the odd-length single row vanish, and both are genuinely false,
    witnessed by explicit states.
    """
    N = as_int(n_particles, "particle count")
    r = as_int(r, "level count")
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
    # the single row vanishes exactly when its width is odd
    witnesses = {
        (1,) * width: (_SLATER, lambda: slater_determinant(N, r)),
        (width,): (
            "vanishing coefficient; false for a core plus equal level pairs",
            lambda: level_merged_state(N, (width + 1) // 2),
        ),
    }
    items, excluded = _framed_family(N - 1, width, N - 2, False, witnesses)
    return InequalityFamily(
        kind="kind1",
        n_particles=N,
        items=tuple(items),
        excluded=tuple(excluded),
        levels=r,
    )


def _kind2_expansion(N: int, p: int) -> list[OccupationInequality]:
    if p > KIND2_WIDTH_CAP:
        raise ResourceLimitError(
            f"grassmann_kind2: p={p} exceeds the width cap {KIND2_WIDTH_CAP}"
        )
    degree = comb(p, N)
    estimate = comb(degree + p - 1, p - 1)
    if estimate > KIND2_TERM_CAP:
        raise ResourceLimitError(
            f"grassmann_kind2: expanding the degree-{degree} product over {p} variables "
            f"may need {estimate} terms (cap {KIND2_TERM_CAP})"
        )
    # The product of the subset-sum forms, dense on the free axes x_1..x_{p-1}:
    # each variable of a form adds the product so far shifted one step on its
    # axis, and x_p, which the degree fixes, unshifted.  Its total N^degree
    # times |S_p| bounds every entry and every alternation sum.
    dtype = _entry_dtype(N**degree * factorial(p))
    product = np.ones((1,) * (p - 1), dtype=dtype)
    for subset in combinations(range(p), N):
        grown = np.zeros(tuple(n + (a in subset) for a, n in enumerate(product.shape)), dtype=dtype)
        for i in subset:
            window = tuple(slice(int(a == i), int(a == i) + n) for a, n in enumerate(product.shape))
            grown[window] += product
        product = grown
    items = []
    for gamma, mult in sorted(schur_decompose(LatticeCharacter((p,), (degree,), product)).items()):
        framed = FramedDiagram(gamma, p, degree)
        indices = shuffle_vertical_sequence(framed)
        items.append(OccupationInequality(indices, N - 1, gamma, mult))
    return items


def grassmann_kind2(n_particles: int, p: int) -> InequalityFamily:
    """All bound-(N-1) inequalities from p-point subsets, for N particles.

    The product of the subset-sum forms over all N-element subsets of 1..p is
    decomposed into Schur components; every component gives an inequality on
    any number of levels.  For p = N + 1 the closed column-strip form of the
    coefficients is used and the two vanishing shapes come with violating
    states; other widths expand the product densely, behind resource caps.
    """
    N = as_int(n_particles, "particle count")
    p = as_int(p, "width")
    if N < 1:
        raise ValueError("need at least one particle")
    if p < N:
        raise ValueError(f"need p >= N, got p={p}, N={N}")
    if p == N + 1:
        witnesses = {
            (p,): (_SLATER, lambda: slater_determinant(N, 2 * N + 2)),
            (1,) * p: (
                "vanishing coefficient; false for the flat pair superposition",
                lambda: paired_flat_state(N),
            ),
        }
        items, excluded = _framed_family(p, p, N - 1, True, witnesses)
    else:
        items, excluded = _kind2_expansion(N, p), []
    return InequalityFamily(
        kind="kind2",
        n_particles=N,
        items=tuple(items),
        excluded=tuple(excluded),
        frame_rows=p,
    )


def series_inequality(n_particles: int, p: int) -> OccupationInequality:
    """The distinguished binomial-staircase member of the bound-(N-1) family.

    Its k-th index is k + C(k-1, N-1); for p = N + 1 it reduces to the hook
    (2, 1, ..., 1) transposed shape with coefficient 1.
    """
    N = as_int(n_particles, "particle count")
    p = as_int(p, "width")
    if N < 1:
        raise ValueError("need at least one particle")
    if p < N:
        raise ValueError(f"need p >= N, got p={p}, N={N}")
    indices = tuple(k + comb(k - 1, N - 1) for k in range(1, p + 1))
    gamma = normalize(tuple(comb(p - j, N - 1) for j in range(1, p + 1)))
    return OccupationInequality(indices, N - 1, gamma, None)


def hole_dual_spectrum(spectrum: Sequence, r: int, s: int = 1) -> tuple:
    """Spectrum of the complementary system: reverse and subtract from s."""
    values = list(spectrum)
    if len(values) != r:
        raise ValueError(f"expected {r} entries, got {len(values)}")
    return tuple(s - x for x in reversed(values))


def hole_dual_inequality(
    coeffs: Sequence[int], bound: int, s: int = 1
) -> tuple[tuple[int, ...], int]:
    """Image of a linear inequality under the complementary-system involution.

    Substituting the reversed, s-complemented spectrum turns the coefficient
    vector around with a sign flip and shifts the bound by s times the
    coefficient sum.
    """
    g = [as_int(c, "coefficient") for c in coeffs]
    return tuple(-x for x in reversed(g)), as_int(bound, "bound") - as_int(s, "shift") * sum(g)
