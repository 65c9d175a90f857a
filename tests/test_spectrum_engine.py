"""The coefficient engine against the one it replaced, and its tableau cache.

The references (tests/oracles.py) enumerate the tableaux on every spectrum
and sort on (-value, reading word), and test each permutation of a Monk
chain against v with its whole rank table.  The package reads the tableaux
and their content rows from one cache per (shape, levels), sorts on the
value alone, and tests u t_ij against v from the entries the swap raises.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from oracles import (
    _reference_rank_table,
    reference_bruhat_leq,
    reference_induced_spectrum,
    reference_monk_coefficient,
)
from paulitope import coefficients, polynomials, tableaux
from paulitope.coefficients import coefficient, induced_spectrum, inequality_to_triple, verify_table
from paulitope.fixtures import COEFFICIENT_TABLES, coefficient_table, coefficient_table_raw
from paulitope.permutations import Permutation
from paulitope.polynomials import (
    SparsePoly,
    grassmannian_schubert,
    monk_coefficient,
    schubert_polynomial,
)
from paulitope.tableaux import content_vector, enumerate_ssyt, partitions_in_box

SHAPES = [p for p in partitions_in_box(4, 4) if 1 <= sum(p) <= 4]


@pytest.mark.parametrize("r", range(1, 9))
def test_induced_spectrum_matches_reference(r):
    rng = random.Random(f"spectrum-{r}")
    for nu in SHAPES:
        for _ in range(4):
            # few distinct entries, so values tie often
            a = sorted((rng.randrange(3) for _ in range(r)), reverse=True)
            got = induced_spectrum(a, nu)
            assert got == reference_induced_spectrum(a, nu), (a, nu)


def test_induced_spectrum_ties_are_exercised():
    spectrum = induced_spectrum((1, 1, 1, 0, 0, 0, 0, 0), (2, 1))
    values = [e.value for e in spectrum]
    assert len(values) == 168 and len(set(values)) == 4
    assert spectrum == reference_induced_spectrum((1, 1, 1, 0, 0, 0, 0, 0), (2, 1))


def test_induced_spectrum_refuses_what_the_reference_refuses():
    with pytest.raises(ValueError, match=r"^test spectrum not weakly decreasing: \(0, 1\)$"):
        induced_spectrum((0, 1), (1,))
    with pytest.raises(ValueError, match=r"^max_entry must be at least 1$"):
        induced_spectrum((), (1,))


def _random_form(rng, r: int, earlier: list) -> tuple[int, ...]:
    kind = rng.randrange(4)
    if kind == 0:
        return (0,) * r
    if kind == 1 and earlier:
        return rng.choice(earlier)
    if kind == 2:
        # repeated entries give zero Monk weights
        return tuple(rng.choice((0, 1)) for _ in range(r))
    return tuple(rng.randrange(-2, 3) for _ in range(r))


def _random_poly(rng, nvars: int, degree: int) -> SparsePoly:
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.choice((-2, -1, 1, 3))
    return SparsePoly(nvars, terms)


@pytest.mark.parametrize("r", range(2, 7))
def test_monk_coefficient_matches_reference(r):
    rng = random.Random(f"monk-{r}")
    perms = [
        Permutation(images)
        for m in range(1, r + 1)
        for images in itertools.permutations(range(1, m + 1))
    ]
    nonzero = smaller = 0
    for _ in range(60):
        v = rng.choice(perms)
        nvars = rng.randrange(1, 5)
        forms: list = []
        for _ in range(nvars):
            forms.append(_random_form(rng, r, forms))
        if rng.randrange(2):
            poly = _random_poly(rng, nvars, v.length())
        else:
            # a Schubert polynomial of the same length, as ``coefficient`` hands over
            w = rng.choice([p for p in perms if p.length() == v.length()])
            poly = grassmannian_schubert(w) or schubert_polynomial(w)
            forms = [_random_form(rng, r, forms) for _ in range(poly.nvars)]
        got = _or_error(monk_coefficient, poly, forms, v, r)
        assert got == _or_error(reference_monk_coefficient, poly, forms, v, r), (poly, forms, v)
        nonzero += isinstance(got, int) and got != 0
        smaller += v.n < r
    assert nonzero >= 10 and smaller >= 10, (nonzero, smaller)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_swap_bruhat_test_matches_whole_rank_tables(n):
    # every u below every v, stepped by a form with distinct entries, so that
    # every length-raising swap u t_ij is tried
    group = list(itertools.permutations(range(1, n + 1)))
    alpha = tuple(range(n, 0, -1))
    layout = polynomials._slack_layout(n)

    def slack(u, v):
        # v's rank table minus u's, entry by entry
        tables = (_reference_rank_table(v), _reference_rank_table(u))
        return sum(x - y << layout[0] * k for k, (x, y) in enumerate(zip(*tables)))

    for v in group:
        for u in group:
            if not reference_bruhat_leq(u, v):
                continue
            slacks = {u: slack(u, v)}
            layer = polynomials._monk_layer({u: 1}, alpha, slacks, layout)
            steps = {step for step, *_ in polynomials._monk_step(u, alpha)}
            assert set(layer) == {s for s in steps if reference_bruhat_leq(s, v)}, (u, v)
            for s in steps:
                want = slack(s, v) if s in layer else None
                assert slacks.get(s) == want, (u, v, s)


def _or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


TABLE_ROWS = [
    pytest.param(name, index, id=f"{name}-{index}")
    for name in COEFFICIENT_TABLES
    for index in range(len(coefficient_table(name)["rows"]))
]


@pytest.mark.parametrize("name,index", TABLE_ROWS)
def test_table_row_coefficient_matches_reference_engine(name, index):
    table = coefficient_table(name)
    nu, r = table["nu"], table["r"]
    row = table["rows"][index]
    a, v, w = inequality_to_triple(row["lambda_coeffs"], row["bound"], nu, r)
    schubert = grassmannian_schubert(w) or schubert_polynomial(w)
    spectrum = reference_induced_spectrum(a, nu)
    forms = [content_vector(e.tableau, r) for e in spectrum[: schubert.nvars]]
    want = reference_monk_coefficient(schubert, forms, v, r)
    assert coefficient(a, nu, r, v, w) == want == row["c"]


def test_mutating_an_enumeration_leaves_later_calls_alone():
    first = enumerate_ssyt((2, 1), 3)
    want = list(first)
    first.reverse()
    first.append(((9,),))
    del first[0]
    assert enumerate_ssyt((2, 1), 3) == want
    assert enumerate_ssyt([2, 1, 0], 3) is not enumerate_ssyt((2, 1), 3)
    spectrum = induced_spectrum((2, 1, 0), (2, 1))
    spectrum.clear()
    assert induced_spectrum((2, 1, 0), (2, 1)) == reference_induced_spectrum((2, 1, 0), (2, 1))


def test_a_cached_spectrum_cannot_be_changed_through_its_readers(monkeypatch):
    table = coefficient_table("3x6")
    nu, r = table["nu"], table["r"]
    row = table["rows"][0]
    a, v, w = inequality_to_triple(row["lambda_coeffs"], row["bound"], nu, r)
    cached = coefficients._spectrum(a, tableaux.normalize(nu))
    before = repr(cached)
    hash(cached)  # tuples all the way down, so nothing in it changes in place
    entries = induced_spectrum(list(a), nu)
    entries.reverse()
    entries.clear()
    real = coefficients.monk_coefficient

    def meddling(poly, forms, v, r):
        got = real(poly, forms, v, r)
        for form in forms:
            with pytest.raises(TypeError):
                form[0] = 99
        forms.clear()
        return got

    monkeypatch.setattr(coefficients, "monk_coefficient", meddling)
    assert coefficient(a, nu, r, v, w) == row["c"] != 0
    assert coefficients._spectrum(a, tableaux.normalize(nu)) is cached
    assert repr(cached) == before
    assert induced_spectrum(a, nu) == reference_induced_spectrum(a, nu)


def test_verify_table_fills_each_shape_once(monkeypatch):
    calls = []
    fill = tableaux._fill_ssyt

    def counted(shape, max_entry):
        calls.append((shape, max_entry))
        return fill(shape, max_entry)

    monkeypatch.setattr(tableaux, "_fill_ssyt", counted)
    tableaux._ssyt.cache_clear()
    coefficients._spectrum.cache_clear()  # a cached spectrum would skip the tableau cache
    assert verify_table(coefficient_table_raw("3x8"))["ok"]
    assert ((1, 1, 1), 8) in calls
    assert len(calls) == len(set(calls)), sorted(calls)
    calls.clear()
    assert verify_table(coefficient_table_raw("3x8"))["ok"]
    assert calls == []


def _stage_times():
    path = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
    spec = importlib.util.spec_from_file_location("stage_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["pipeline", "tables", "hull", "curve", "vertices", "replay"])
def test_every_timed_stage_resolves_to_a_package_name(mode):
    stages = _stage_times().MODES[mode]
    assert stages
    for stage, names in stages.items():
        assert any(hasattr(module, name) for module, name in names), (mode, stage)


def _package_caches() -> dict:
    return {
        f"{name}.{attr}": obj
        for name, module in sys.modules.items()
        if name.startswith("paulitope.")
        for attr, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }


def test_clear_caches_reaches_every_cache_behind_the_stage_wrappers(monkeypatch):
    stage_times = _stage_times()
    caches = _package_caches()
    assert "paulitope.coefficients._spectrum" in caches
    for stages in stage_times.MODES.values():
        for names in stages.values():
            for module, name in names:
                if hasattr(module, name):
                    # recorded, so that the wrappers go again after the test
                    monkeypatch.setattr(module, name, getattr(module, name))
    totals = defaultdict(float)
    for stages in stage_times.MODES.values():
        stage_times.install(stages, totals)
    assert not hasattr(coefficients._spectrum, "cache_info")
    assert verify_table(coefficient_table_raw("3x6"))["ok"]
    assert totals["spectrum"] > 0
    assert caches["paulitope.coefficients._spectrum"].cache_info().currsize > 0
    stage_times.clear_caches()
    warm = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert warm == dict.fromkeys(caches, 0)
