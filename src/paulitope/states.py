"""Finitely supported states, one-particle density matrices, occupations.

Amplitudes are stored exactly as a sign times the square root of a
nonnegative rational, so norms and diagonal matrix elements stay rational.
Off-diagonal matrix elements are rational whenever every amplitude product is
a perfect square; otherwise the matrix falls back to floats.  A wedge state
whose support has no two wedges one particle move apart is decoupled: its
matrix is diagonal, so its spectrum is read from the integer diagonal over
the norm, with no matrix built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import as_int
from .tableaux import Tableau, content_vector, is_semistandard, normalize

EIGENVALUE_TOLERANCE = 1e-9


class Amplitude(NamedTuple):
    """sign * sqrt(radicand) with sign in {+1, -1} and radicand >= 0."""

    sign: int
    radicand: Fraction

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.radicand))


def amplitude(sign: int, radicand) -> Amplitude:
    sign = as_int(sign, "sign")
    radicand = Fraction(radicand)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if radicand < 0:
        raise ValueError(f"radicand must be nonnegative, got {radicand}")
    return Amplitude(sign, radicand)


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class _ExactState:
    """Amplitude store and value semantics shared by the exact states.

    A subclass sets its own fields, then hands its amplitudes to ``_store``,
    which runs the subclass's ``_key`` check on every key before coercing its
    amplitude, and keeps the nonzero ones.  The fields are the subclass's
    slots, amplitudes last; equal fields make equal states, and the hash reads
    the amplitudes as a frozenset, so a state can sit in a frozen dataclass.
    """

    __slots__ = ()

    def _store(self, amplitudes: Mapping) -> None:
        clean = {}
        for raw, amp in amplitudes.items():
            key = self._key(raw)
            if not isinstance(amp, Amplitude):
                amp = amplitude(*amp)
            if amp.radicand:
                clean[key] = amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        self.amplitudes = clean

    def norm_squared(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))

    def support(self) -> list:
        return sorted(self.amplitudes)

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
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class WedgeState(_ExactState):
    """Antisymmetric n-particle state on r levels, supported on basis wedges.

    Keys are strictly increasing index tuples of length n_particles with
    entries in 1..levels.
    """

    __slots__ = ("n_particles", "levels", "amplitudes")

    def __init__(
        self,
        n_particles: int,
        levels: int,
        amplitudes: Mapping[Sequence[int], Amplitude],
    ):
        self.n_particles = as_int(n_particles, "particle count")
        self.levels = as_int(levels, "level count")
        self._store(amplitudes)

    def _key(self, subset: Sequence[int]) -> tuple[int, ...]:
        key = tuple(as_int(x, "wedge index") for x in subset)
        if len(key) != self.n_particles:
            raise ValueError(f"wedge {key} has wrong particle count")
        if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
            raise ValueError(f"wedge indices must be strictly increasing: {key}")
        if key and (key[0] < 1 or key[-1] > self.levels):
            raise ValueError(f"wedge indices out of range 1..{self.levels}: {key}")
        return key

    @staticmethod
    def from_terms(n_particles: int, levels: int, terms: Iterable[Mapping]) -> "WedgeState":
        amps = {
            tuple(t["subset"]): amplitude(t.get("sign", 1), Fraction(str(t["radicand"])))
            for t in terms
        }
        return WedgeState(n_particles, levels, amps)


class TableauState(_ExactState):
    """State in the shape-nu representation supported on tableau basis vectors."""

    __slots__ = ("nu", "levels", "amplitudes")

    def __init__(self, nu, levels: int, amplitudes: Mapping[Tableau, Amplitude]):
        self.nu = normalize(nu)
        self.levels = as_int(levels, "level count")
        self._store(amplitudes)

    def _key(self, tab: Tableau) -> Tableau:
        key = tuple(tuple(as_int(x, "tableau entry") for x in row) for row in tab)
        if not is_semistandard(key, self.nu):
            raise ValueError(f"not a semistandard tableau of shape {self.nu}: {key}")
        if any(x < 1 or x > self.levels for row in key for x in row):
            raise ValueError(f"entries out of range 1..{self.levels}: {key}")
        return key


class OneParticleRDM(NamedTuple):
    """Hermitian (here real symmetric) matrix of level-pair correlations."""

    entries: tuple[tuple, ...]
    exact: bool

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)

    def is_diagonal(self) -> bool:
        return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(self.entries))


class _Support(NamedTuple):
    """Level occupations and norm squared as numerators over ``den``, and the coupled pairs.

    ``off`` maps (i, j) to its terms (sign, radicand product, rational root
    or None) in amplitude order; the support is decoupled when it is empty.
    """

    diag: list[int]
    total: int
    den: int
    off: dict


def _gather(psi: WedgeState) -> _Support:
    """One pass over the support, each wedge read as the bitmask of its levels.

    Two wedges couple when their masks differ in exactly two bits i < j, and
    the pair adds to the (i, j) entry from the wedge holding i; the
    fermionic sign counts the occupied levels strictly between i and j.
    Each unordered pair is tested once.  Its term waits with the wedge
    holding i, so each entry's terms come out by the index of that wedge,
    then by its partner's: a wedge's partners before it are found in their
    order before the pass reaches it, and those after it then.
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
    held: list[list] = [[] for _ in amps]  # per wedge, the terms of the pairs in which it holds i
    for a, (mask, amp) in enumerate(zip(masks, amps)):
        for b in range(a + 1, len(masks)):
            moved = mask ^ masks[b]
            if moved.bit_count() != 2:
                continue
            low = moved & -moved
            high = moved ^ low
            other = amps[b]
            # both masks hold the same levels strictly between i and j
            sign = amp.sign * other.sign * (-1) ** (mask & (high - 2 * low)).bit_count()
            rad = amp.radicand * other.radicand
            held[a if mask & low else b].append(
                ((low.bit_length() - 1, high.bit_length() - 1), (sign, rad, _exact_sqrt(rad)))
            )
    off = {}
    for terms in held:
        for key, term in terms:
            off.setdefault(key, []).append(term)
    return _Support(diag, sum(nums), den, off)


def one_particle_rdm(psi: WedgeState) -> OneParticleRDM:
    """One-particle reduced density matrix, normalized to trace n_particles.

    All entries are exact rationals when every amplitude product involved
    is a perfect square; otherwise every entry is a float.
    """
    support = _gather(psi)  # refuses anything but a WedgeState
    return _assemble(psi.levels, support)


def _assemble(r: int, support: _Support) -> OneParticleRDM:
    total, den, off = support.total, support.den, support.off
    if all(root is not None for terms in off.values() for _, _, root in terms):
        exact, zero, norm = True, Fraction(0), Fraction(total, den)
        diag = [Fraction(d, total) for d in support.diag]
        values = {key: [sign * root for sign, _, root in terms] for key, terms in off.items()}
    else:
        # an int quotient rounds once, as float(Fraction(d, den)) does
        exact, zero, norm = False, 0.0, total / den
        diag = [d / den / norm for d in support.diag]
        values = {
            key: [sign * math.sqrt(float(rad)) for sign, rad, _ in terms]
            for key, terms in off.items()
        }
    rows = [[zero] * r for _ in range(r)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    for (i, j), terms in values.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = sum(terms) / norm
    return OneParticleRDM(tuple(map(tuple, rows)), exact)


def occupation_numbers(psi: WedgeState):
    """Eigenvalues of the one-particle density matrix, sorted decreasing.

    Exact rationals when the matrix is exactly diagonal (read with no matrix
    for a decoupled support), floats (via a symmetric eigensolver) otherwise.
    """
    support = _gather(psi)
    if not support.off:
        return tuple(Fraction(d, support.total) for d in sorted(support.diag, reverse=True))
    return _matrix_spectrum(_assemble(psi.levels, support))


def _matrix_spectrum(rdm: OneParticleRDM) -> tuple:
    if rdm.exact and rdm.is_diagonal():
        diag = [rdm.entries[i][i] for i in range(len(rdm.entries))]
        # sorted on integer numerators over one denominator, not on Fraction comparisons
        den = math.lcm(*(d.denominator for d in diag))
        return tuple(sorted(diag, key=lambda d: d.numerator * (den // d.denominator), reverse=True))
    eigs = np.linalg.eigvalsh(rdm.as_array())
    return tuple(sorted((float(x) for x in eigs), reverse=True))


def _rows(item: Sequence) -> Sequence[Sequence[int]]:
    """A basis vector as rows of levels: a tableau as it is, a wedge as one row."""
    return item if item and isinstance(item[0], tuple) else (item,)


def weight_graph_disconnected(support: Sequence) -> bool:
    """True when no two support vectors are coupled by a one-level move.

    Two basis vectors interact in the one-particle density matrix only when
    their level contents differ by moving a single particle; a support with no
    such pair has an exactly diagonal matrix.
    """
    levels = max((x for item in support for row in _rows(item) for x in row), default=1)
    contents = [content_vector(_rows(item), levels) for item in support]
    for i in range(len(contents)):
        for j in range(i + 1, len(contents)):
            delta = [a - b for a, b in zip(contents[i], contents[j])]
            if sorted(x for x in delta if x) == [-1, 1]:
                return False
    return True


def dadok_kac_spectrum(state: "TableauState | WedgeState") -> tuple[Fraction, ...]:
    """Occupation of each level for a state with decoupled support.

    Level i receives the content multiplicity of i in each basis vector,
    weighted by the squared amplitude.  Raises ValueError when two support
    vectors are coupled, since the density matrix need not be diagonal then.
    """
    support = state.support()
    if not weight_graph_disconnected(support):
        raise ValueError("support vectors are coupled; the diagonal formula does not apply")
    norm2 = state.norm_squared()
    occ = [Fraction(0)] * state.levels
    for item in support:
        rad = state.amplitudes[item].radicand
        for i, mult in enumerate(content_vector(_rows(item), state.levels)):
            if mult:
                occ[i] += mult * rad
    return tuple(x / norm2 for x in occ)


def verify_vertex(
    psi: WedgeState,
    expected_ratio: Sequence[int],
    tolerance: float = EIGENVALUE_TOLERANCE,
) -> bool:
    """Check that the occupation spectrum matches a ratio vector exactly.

    The expected spectrum is the ratio rescaled to trace n_particles.  The
    comparison is exact on the rational path, in integers for a decoupled
    support, and within ``tolerance`` on the eigensolver path.
    """
    # ints and Fractions are exact already; anything else keeps its decimal
    # meaning, so the float 0.1 reads as 1/10
    ratio = [x if type(x) in (int, Fraction) else Fraction(str(x)) for x in expected_ratio]
    if len(ratio) != psi.levels:
        raise ValueError(f"expected {psi.levels} ratio entries, got {len(ratio)}")
    total = sum(ratio)
    if total <= 0:
        raise ValueError("ratio must have positive sum")
    n = psi.n_particles
    support = _gather(psi)
    if not support.off:
        return _diagonal_matches(support, ratio, n)
    # scaling by n_particles / total keeps the order, so the ratio sorts as given
    expected = [Fraction(x * n, total) for x in sorted(ratio, reverse=True)]
    occ = _matrix_spectrum(_assemble(psi.levels, support))
    if isinstance(occ[0], Fraction):
        return list(occ) == expected
    return max(abs(o - float(e)) for o, e in zip(occ, expected)) <= tolerance


def _diagonal_matches(support: _Support, ratio: Sequence, n_particles: int) -> bool:
    """verify_vertex on a decoupled support: d_i * sum(x) against x_i * N * total, sorted.

    x is the ratio scaled to integers over one denominator.
    """
    den = math.lcm(*(x.denominator for x in ratio))
    xs = [x.numerator * (den // x.denominator) for x in ratio]
    s, scale = sum(xs), n_particles * support.total
    return sorted(d * s for d in support.diag) == sorted(x * scale for x in xs)


def slater_determinant(n_particles: int, levels: int) -> WedgeState:
    """The single wedge on the lowest n_particles levels."""
    if levels < n_particles:
        raise ValueError("need at least as many levels as particles")
    key = tuple(range(1, n_particles + 1))
    return WedgeState(n_particles, levels, {key: amplitude(1, 1)})


def paired_flat_state(n_particles: int) -> WedgeState:
    """Equal superposition of pair-complement wedges on n_particles + 2 levels.

    For even n_particles the i-th wedge omits the pair {2i-1, 2i}; every
    level then carries occupation n_particles / (n_particles + 2).
    """
    if n_particles % 2:
        raise ValueError("needs an even particle count")
    r = n_particles + 2
    amps = {}
    for i in range(1, r // 2 + 1):
        pair = {2 * i - 1, 2 * i}
        subset = tuple(x for x in range(1, r + 1) if x not in pair)
        amps[subset] = amplitude(1, 1)
    return WedgeState(n_particles, r, amps)


def level_merged_state(n_particles: int, m: int) -> WedgeState:
    """Core of n_particles - 2 frozen levels plus m equal two-level pairs.

    Lives on n_particles - 2 + 2m levels; the frozen levels have occupation 1
    and each of the 2m tail levels has occupation 1/m.
    """
    if n_particles < 2 or m < 1:
        raise ValueError("needs at least two particles and one pair")
    core = tuple(range(1, n_particles - 1))
    amps = {}
    for i in range(m):
        lo = n_particles - 1 + 2 * i
        amps[core + (lo, lo + 1)] = amplitude(1, 1)
    return WedgeState(n_particles, n_particles - 2 + 2 * m, amps)
