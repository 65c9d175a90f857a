"""Induced test spectra and the Schubert coefficients attached to inequalities.

The key objects are triples (a, v, w): a weakly decreasing integer test
spectrum ``a``, a permutation ``v`` recording how the inequality selects
one-body levels, and a permutation ``w`` recording where the induced spectrum
of ``a`` is cut.  The integer produced by ``coefficient`` decides whether the
corresponding occupation-number inequality is a theorem.

The induced spectrum reads the tableaux of a shape, and their content rows,
from the cache in ``tableaux``: each value is ``a`` dotted with a content
row, and the leading content rows are the linear forms ``coefficient``
hands to ``monk_coefficient``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import UnmatchedInequalityError, as_int
from .permutations import Permutation, require_minimal
from .polynomials import grassmannian_schubert, monk_coefficient, schubert_polynomial
from .tableaux import Partition, Tableau, _ssyt, normalize, size


class SpectrumEntry(NamedTuple):
    value: int
    tableau: Tableau


class TestSpectrumTriple(NamedTuple):
    a: tuple[int, ...]
    v: Permutation
    w: Permutation


def induced_spectrum(a: Sequence[int], nu: Iterable[int]) -> list[SpectrumEntry]:
    """Eigenvalues of the one-body test spectrum ``a`` on the shape-nu space.

    Each semistandard tableau with entries in 1..len(a) contributes the sum of
    ``a`` over its entries.  Entries are sorted by decreasing value, ties by
    the row reading word of the tableau.
    """
    return [SpectrumEntry(value, tab) for value, tab, _ in _spectrum(a, normalize(nu))]


def _spectrum(a: Sequence[int], nu: Partition) -> list[tuple[int, Tableau, tuple[int, ...]]]:
    """(value, tableau, content row) per tableau, in the order of ``induced_spectrum``.

    A value is ``a`` dotted with the content row.  The tableaux come sorted by
    reading word, and distinct tableaux of one shape have distinct reading
    words, so one stable sort on the value alone breaks ties by reading word.
    """
    a = tuple(x if type(x) is int else as_int(x, "test spectrum entry") for x in a)
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
        raise ValueError(f"test spectrum not weakly decreasing: {a}")
    tableaux, contents = _ssyt(nu, len(a))
    rows = [(sum(map(mul, a, row)), tab, row) for tab, row in zip(tableaux, contents)]
    rows.sort(key=lambda row: -row[0])
    return rows


def value_blocks(values: Sequence[int]) -> list[list[int]]:
    """Runs of equal values as 1-based position blocks."""
    blocks: list[list[int]] = []
    for pos, val in enumerate(values, start=1):
        if blocks and values[pos - 2] == val:
            blocks[-1].append(pos)
        else:
            blocks.append([pos])
    return blocks


def coefficient(
    a: Sequence[int],
    nu: Iterable[int],
    r: int,
    v: Permutation,
    w: Permutation,
) -> int:
    """Schubert expansion coefficient c_v^w(a) for the shape-nu system on r levels.

    The Schubert polynomial of w is specialized at the linear forms given by
    the content rows of the leading tableaux of the induced spectrum of
    ``a``, and the coefficient of S_v in the result is summed over Monk
    chains below v (``monk_coefficient``).
    Both permutations must be minimal in their cosets for the tie blocks of
    ``a`` and of the induced spectrum.
    """
    a = tuple(x if type(x) is int else as_int(x, "test spectrum entry") for x in a)
    if len(a) != r:
        raise ValueError(f"test spectrum has {len(a)} entries, expected r={r}")
    nu = normalize(nu)
    require_minimal(v, value_blocks(a), "v")
    spectrum = _spectrum(a, nu)
    dim = len(spectrum)
    if w.n > dim:
        raise ValueError(f"w moves {w.n} points but the induced spectrum has {dim}")
    require_minimal(w, value_blocks([value for value, _, _ in spectrum]), "w")
    if v.length() != w.length():
        return 0

    schubert = grassmannian_schubert(w)
    if schubert is None:
        schubert = schubert_polynomial(w)
    forms = [row for _, _, row in spectrum[: schubert.nvars]]
    return monk_coefficient(schubert, forms, v, r)


def inequality_to_triple(
    lambda_coeffs: Sequence[int],
    bound,
    nu: Iterable[int],
    r: int,
    mu_coeffs: Sequence[int] | None = None,
) -> TestSpectrumTriple:
    """Convert a linear occupation-number inequality into a triple (a, v, w).

    The inequality reads sum_i g_i lambda_i + sum_j h_j mu_j <= b, where the
    mu part is absent for purely fermionic systems.  Using the trace identities
    the lambda coefficients are shifted to a nonnegative test spectrum ``a``
    and the right hand side is folded into one target value per mu slot; ``w``
    places those targets inside the induced spectrum of ``a``.  Raises
    UnmatchedInequalityError when no placement with matching lengths exists.
    """
    g = [as_int(x, "lambda coefficient") for x in lambda_coeffs]
    b = as_int(bound, "bound")
    nu = normalize(nu)
    n_particles = size(nu)
    if len(g) != r:
        raise ValueError(f"expected {r} lambda coefficients, got {len(g)}")
    h = [as_int(x, "mu coefficient") for x in mu_coeffs] if mu_coeffs else [0]

    shift = -min(g)
    order = sorted(range(1, r + 1), key=lambda i: (-g[i - 1], i))
    v = Permutation(order)
    a = tuple(g[i - 1] + shift for i in order)

    values = [value for value, _, _ in _spectrum(a, nu)]
    targets = [b + shift * n_particles - hj for hj in h]

    used: set[int] = set()
    placement: dict[int, int] = {}
    for j, target in enumerate(targets, start=1):
        pos = next(
            (k for k, val in enumerate(values, start=1) if val == target and k not in used),
            None,
        )
        if pos is None:
            raise UnmatchedInequalityError(
                f"target value {target} for mu slot {j} does not occur in the induced spectrum"
            )
        used.add(pos)
        placement[pos] = j
    one_line = [0] * max(used)
    rest = iter(range(len(targets) + 1, max(used) + 1))
    for k in range(1, max(used) + 1):
        one_line[k - 1] = placement.get(k) or next(rest)
    w = Permutation(one_line)

    require_minimal(w, value_blocks(values), "w")
    if w.length() != v.length():
        raise UnmatchedInequalityError(
            f"cut permutation has length {w.length()} but the level permutation has {v.length()}"
        )
    return TestSpectrumTriple(a, v, w)


def verify_table(table: dict) -> dict:
    """Replay one golden inequality table and recompute every coefficient.

    ``table`` holds the shape, the level count, and rows with integer
    inequality data plus the expected (v, w, c).  The report records, per row,
    whether the reconstructed triple and the recomputed coefficient agree.
    """
    nu = normalize(table["nu"])
    r = as_int(table["r"], "level count")
    rows_report = []
    all_ok = True
    for idx, row in enumerate(table["rows"], start=1):
        expected_v = Permutation.from_cycles(row["v_cycles"])
        expected_w = Permutation.from_cycles(row["w_cycles"])
        expected_c = as_int(row["c"], "expected coefficient")
        report = {
            "index": idx,
            "lambda_coeffs": list(row["lambda_coeffs"]),
            "bound": row["bound"],
            "expected_c": expected_c,
        }
        try:
            triple = inequality_to_triple(row["lambda_coeffs"], row["bound"], nu, r)
            computed_c = coefficient(triple.a, nu, r, triple.v, triple.w)
            report["v_ok"] = triple.v == expected_v
            report["w_ok"] = triple.w == expected_w
            report["computed_c"] = computed_c
            report["c_ok"] = computed_c == expected_c
            report["ok"] = report["v_ok"] and report["w_ok"] and report["c_ok"]
        except (UnmatchedInequalityError, ValueError) as exc:
            report["error"] = str(exc)
            report["ok"] = False
        rows_report.append(report)
        all_ok = all_ok and report["ok"]
    return {"nu": list(nu), "r": r, "ok": all_ok, "rows": rows_report}
