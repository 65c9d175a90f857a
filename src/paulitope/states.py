"""Finitely supported states, one-particle density matrices, occupations.

Amplitudes are stored exactly as a sign times the square root of a
nonnegative rational, so norms and diagonal matrix elements stay rational.
Off-diagonal matrix elements are rational whenever every amplitude product is
a perfect square; otherwise the matrix falls back to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .tableaux import Tableau, content_vector, is_semistandard, normalize, size

EIGENVALUE_TOLERANCE = 1e-9


class Amplitude(NamedTuple):
    """sign * sqrt(radicand) with sign in {+1, -1} and radicand >= 0."""

    sign: int
    radicand: Fraction

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.radicand))


def amplitude(sign: int, radicand) -> Amplitude:
    sign = int(sign)
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
    """Value semantics shared by the exact states: equal fields, equal states.

    The fields are the subclass's slots, amplitudes last; the hash reads the
    amplitudes as a frozenset, so a state can sit in a frozen dataclass.
    """

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
                amp = amplitude(*amp)
            if amp.radicand:
                clean[key] = amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        self.amplitudes = clean

    @staticmethod
    def from_terms(n_particles: int, levels: int, terms: Iterable[Mapping]) -> "WedgeState":
        amps = {
            tuple(t["subset"]): amplitude(t.get("sign", 1), Fraction(str(t["radicand"])))
            for t in terms
        }
        return WedgeState(n_particles, levels, amps)

    def norm_squared(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.amplitudes)


class TableauState(_ExactState):
    """State in the shape-nu representation supported on tableau basis vectors."""

    __slots__ = ("nu", "levels", "amplitudes")

    def __init__(self, nu, levels: int, amplitudes: Mapping[Tableau, Amplitude]):
        self.nu = normalize(nu)
        self.levels = int(levels)
        clean: dict[Tableau, Amplitude] = {}
        for tab, amp in amplitudes.items():
            key = tuple(tuple(int(x) for x in row) for row in tab)
            if not is_semistandard(key, self.nu):
                raise ValueError(f"not a semistandard tableau of shape {self.nu}: {key}")
            if any(x < 1 or x > self.levels for row in key for x in row):
                raise ValueError(f"entries out of range 1..{self.levels}: {key}")
            if not isinstance(amp, Amplitude):
                amp = amplitude(*amp)
            if amp.radicand:
                clean[key] = amp
        if not clean:
            raise ValueError("state has no nonzero amplitude")
        self.amplitudes = clean

    def norm_squared(self) -> Fraction:
        return sum((a.radicand for a in self.amplitudes.values()), Fraction(0))

    def support(self) -> list[Tableau]:
        return sorted(self.amplitudes)


class OneParticleRDM(NamedTuple):
    """Hermitian (here real symmetric) matrix of level-pair correlations."""

    entries: tuple[tuple, ...]
    exact: bool

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)

    def is_diagonal(self) -> bool:
        return all(
            not self.entries[i][j]
            for i in range(len(self.entries))
            for j in range(len(self.entries))
            if i != j
        )


def one_particle_rdm(psi: WedgeState) -> OneParticleRDM:
    """One-particle reduced density matrix, normalized to trace n_particles.

    The (i, j) entry pairs every wedge containing level i with the wedge where
    i is replaced by j; the fermionic sign counts the occupied levels strictly
    between i and j.  All entries are exact rationals when every amplitude
    product involved is a perfect square.
    """
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
                off_terms.setdefault((i, j), []).append(
                    (sign, amp.radicand * other.radicand)
                )

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


def occupation_numbers(psi: WedgeState):
    """Eigenvalues of the one-particle density matrix, sorted decreasing.

    Exact rationals when the matrix is exactly diagonal, floats (via a
    symmetric eigensolver) otherwise.
    """
    rdm = one_particle_rdm(psi)
    if rdm.exact and rdm.is_diagonal():
        return tuple(sorted((rdm.entries[i][i] for i in range(psi.levels)), reverse=True))
    eigs = np.linalg.eigvalsh(rdm.as_array())
    return tuple(sorted((float(x) for x in eigs), reverse=True))


def _support_contents(support: Sequence, levels: int) -> list[tuple[int, ...]]:
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


def weight_graph_disconnected(support: Sequence, levels: int | None = None) -> bool:
    """True when no two support vectors are coupled by a one-level move.

    Two basis vectors interact in the one-particle density matrix only when
    their level contents differ by moving a single particle; a support with no
    such pair has an exactly diagonal matrix.
    """
    if levels is None:
        levels = max(
            (x for item in support for x in (
                (y for row in item for y in row) if item and isinstance(item[0], tuple) else item
            )),
            default=1,
        )
    contents = _support_contents(support, levels)
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
    if not weight_graph_disconnected(support, state.levels):
        raise ValueError("support vectors are coupled; the diagonal formula does not apply")
    contents = _support_contents(support, state.levels)
    norm2 = state.norm_squared()
    occ = [Fraction(0)] * state.levels
    for item, content in zip(support, contents):
        rad = state.amplitudes[item].radicand
        for i, mult in enumerate(content):
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
    comparison is exact on the rational path and within ``tolerance`` on the
    eigensolver path.
    """
    ratio = [Fraction(str(x)) for x in expected_ratio]
    if len(ratio) != psi.levels:
        raise ValueError(f"expected {psi.levels} ratio entries, got {len(ratio)}")
    total = sum(ratio)
    if total <= 0:
        raise ValueError("ratio must have positive sum")
    expected = sorted((x * psi.n_particles / total for x in ratio), reverse=True)
    occ = occupation_numbers(psi)
    if occ and isinstance(occ[0], Fraction):
        return list(occ) == expected
    return max(abs(o - float(e)) for o, e in zip(occ, expected)) <= tolerance


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
