"""One Newton series per pipeline run, against rebuilding it at every cutoff.

``pipeline`` keeps one list of degrees for the whole run and hands it to
each cutoff's ``inner_points``, which extends it only by the degrees it
lacks; each degree caches its decomposition.  The reference
(``rebuild_pipeline`` in tests/oracles.py) is the package's pipeline as it
was before: every cutoff builds and decomposes its series from degree 1.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import rebuild_pipeline
from paulitope import plethysm, polytope
from paulitope.plethysm import character, inner_points, plethysm_h_series, schur_decompose

SCHEDULES = {
    "c4": (((1, 1, 1), 6, 1, [2, 4]), {}),
    "fermion-r7-m5": (((1, 1, 1), 7, 1, [2, 4, 5]), {}),
    "mixed-r4-m8": (((2, 1), 4, 2, [4, 8]), {"degree_cap": 36}),
}


def _same_degrees(got, want) -> bool:
    return len(got) == len(want) and all(
        a.groups == b.groups
        and a.totals == b.totals
        and a.array.dtype == b.array.dtype
        and np.array_equal(a.array, b.array)
        for a, b in zip(got, want)
    )


def _counted(monkeypatch, name: str, key=lambda first: first) -> list:
    """Record ``key`` of the first argument of every call to ``plethysm.<name>``."""
    calls: list = []
    fn = getattr(plethysm, name)

    def counted(first, *args, **kwargs):
        calls.append(key(first))
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(plethysm, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_extended_series_equals_a_fresh_series_at_every_degree(name):
    (nu, r, k, schedule), _ = SCHEDULES[name]
    f = character(nu, r)
    series: list = []
    for m_cap in schedule + [1]:  # a lower cutoff last reads a prefix
        got = plethysm_h_series(m_cap, f, k, series=series)
        assert _same_degrees(got, plethysm_h_series(m_cap, f, k)), (name, m_cap)
    assert len(series) == max(schedule) + 1
    assert _same_degrees(series, plethysm_h_series(max(schedule), f, k))


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_every_cutoff_equals_the_rebuild_path(name, monkeypatch):
    (nu, r, k, schedule), caps = SCHEDULES[name]
    seen: list = []
    points_of = polytope.inner_points

    def recorded(*args, **kwargs):
        seen.append((args[3], points_of(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(polytope, "inner_points", recorded)
    for stop in range(1, len(schedule) + 1):
        seen.clear()
        got = polytope.pipeline(nu, r, k, schedule[:stop], **caps)
        want = rebuild_pipeline(nu, r, k, schedule[:stop], **caps)
        # history, the polytope's vertices, facets and equations, and the match
        assert got == want, (name, stop)
        assert [m for m, _ in seen] == schedule[:stop]
        for m_cap, matrix in seen:  # the pipeline takes the hull's integer rows
            fresh = inner_points(nu, r, k, m_cap, **caps, rows=True)
            assert (matrix.dtype, matrix.tolist()) == (fresh.dtype, fresh.tolist()), (name, m_cap)


def test_fermion_run_builds_and_decomposes_each_degree_once(monkeypatch):
    steps = _counted(monkeypatch, "_newton_step", key=len)
    decomposed = _counted(monkeypatch, "_decompose_lattice")
    (nu, r, k, schedule), caps = SCHEDULES["fermion-r7-m5"]
    polytope.pipeline(nu, r, k, schedule, **caps)
    # rebuilding at every cutoff took 2 + 4 + 5 = 11 of each
    assert steps == [1, 2, 3, 4, 5]
    assert sorted(term.totals for term in decomposed) == [(3 * m,) for m in range(1, 6)]


def test_decomposing_a_degree_again_reuses_its_components(monkeypatch):
    h3 = plethysm_h_series(3, character((1, 1), 4), 2)[3]
    decomposed = _counted(monkeypatch, "_decompose_lattice")
    first = schur_decompose(h3)
    assert schur_decompose(h3) == first and len(decomposed) == 1


def test_a_series_of_another_character_or_rank_is_refused_before_any_step(monkeypatch):
    series: list = []
    plethysm_h_series(2, character((1, 1, 1), 6), 1, series=series)
    before = [term.array for term in series]
    steps = _counted(monkeypatch, "_newton_step")
    for f, k in [
        (character((2, 1), 6), 1),  # same groups, another degree 1
        (character((1, 1, 1), 6), 2),  # another rank bound
        (character((1, 1, 1), 7), 1),  # another number of levels
    ]:
        with pytest.raises(ValueError, match="series given"):
            plethysm_h_series(4, f, k, series=series)
    with pytest.raises(ValueError, match="series given"):
        inner_points((1, 1, 1), 6, 2, 4, series=series)
    with pytest.raises(ValueError, match="series given"):
        plethysm_h_series(1, character((1,), 2), series=[None])
    # degree 1 of the right groups is not degree 0
    with pytest.raises(ValueError, match="series given"):
        plethysm_h_series(4, character((1, 1, 1), 6), 1, series=series[1:2])
    assert steps == [] and len(series) == len(before)
    assert all(term.array is array for term, array in zip(series, before))
    # degree 0 is the same for every character of the same groups
    start = series[:1]
    plethysm_h_series(2, character((2, 1), 6), 1, series=start)
    assert _same_degrees(start, plethysm_h_series(2, character((2, 1), 6), 1))


def test_cached_series_arrays_and_components_are_read_only():
    series = plethysm_h_series(3, character((2, 1), 3), 2)
    for term in series:
        with pytest.raises(ValueError, match="read-only"):
            term.array[(0,) * term.array.ndim] = 7
    full, mults = series[3].components
    with pytest.raises(ValueError, match="read-only"):
        full[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        mults[0] = 7
    for table in plethysm._orbit((3, 2)):  # pi(i) on the free axes, and the signs
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


FRACTIONAL = [
    (lambda: polytope.pipeline((1, 1), 4, 1, [2.5]), "cutoff M"),
    (lambda: polytope.pipeline((1, 1), 4, 1, [2, Fraction(5, 2)]), "cutoff M"),
    (lambda: polytope.pipeline((1, 1), 4, 1.5, [2]), "rank bound"),
    (lambda: polytope.pipeline((1, 1), 4, 1.5, []), "rank bound"),
    (lambda: inner_points((1, 1), 4, 1, 2.5), "cutoff m_cap"),
    (lambda: inner_points((1, 1), 4, 1.5, 2), "rank bound"),
    (lambda: plethysm_h_series(2.5, character((1, 1), 4)), "m_max"),
    (lambda: plethysm_h_series(2, character((1, 1), 4), 2.0), "rank bound k"),
    (lambda: polytope.pipeline((1, 1), 4.5, 1, [2]), "level count"),
    (lambda: polytope.pipeline((1, 1), 4.5, 1, []), "level count"),
    (lambda: inner_points((1, 1), 4.5, 1, 2), "level count"),
    # an integral float is refused like any float, as for every count
    (lambda: polytope.pipeline((1, 1), 4.0, 1, [2]), "level count"),
    (lambda: inner_points((1, 1), 4.0, 1, 2), "level count"),
]


@pytest.mark.parametrize("call,what", FRACTIONAL, ids=range(len(FRACTIONAL)))
def test_a_fractional_cutoff_or_rank_bound_is_refused_before_any_step(call, what, monkeypatch):
    steps = _counted(monkeypatch, "_newton_step", len)
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        call()
    assert steps == []


def test_an_integral_fraction_or_numpy_int_runs_like_the_int():
    want = polytope.pipeline((1, 1), 4, 1, [2, 4])
    f = character((2, 1), 3)
    for one, two, four in [(Fraction(1), Fraction(2), Fraction(4)), tuple(map(np.int64, (1, 2, 4)))]:
        got = polytope.pipeline((1, 1), 4, one, [two, four])
        assert got == want
        assert type(got["rank_bound"]) is int and all(type(h["M"]) is int for h in got["history"])
        assert inner_points((1, 1), 4, one, four) == inner_points((1, 1), 4, 1, 4)
        # the level count too
        got = polytope.pipeline((1, 1), four, 1, [2, 4])
        assert got == want and type(got["r"]) is int
        assert inner_points((1, 1), four, 1, 4) == inner_points((1, 1), 4, 1, 4)
        assert _same_degrees(plethysm_h_series(four, f, two), plethysm_h_series(4, f, 2))


@pytest.mark.parametrize("rank_bound", [0, -3])
def test_a_rank_bound_below_one_is_refused_with_any_schedule(rank_bound, monkeypatch):
    steps = _counted(monkeypatch, "_newton_step", len)
    for schedule in ([], [2], [2, 4]):
        with pytest.raises(ValueError, match="^rank bound must be at least 1$"):
            polytope.pipeline((1, 1), 4, rank_bound, schedule)
    assert steps == []


@pytest.mark.parametrize("r", [0, -1])
def test_too_few_levels_are_refused_with_any_schedule(r, monkeypatch):
    # with a cutoff, character refuses them; an empty schedule builds no character
    steps = _counted(monkeypatch, "_newton_step", len)
    for schedule in ([], [2], [2, 4]):
        with pytest.raises(ValueError, match=rf"^shape \(1, 1\) needs more than {r} levels$"):
            polytope.pipeline((1, 1), r, 1, schedule)
    assert steps == []
