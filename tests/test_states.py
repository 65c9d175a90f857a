from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import tensor_rdm
from paulitope.fixtures import vertex_table
from paulitope.states import (
    TableauState,
    WedgeState,
    amplitude,
    dadok_kac_spectrum,
    level_merged_state,
    occupation_numbers,
    one_particle_rdm,
    paired_flat_state,
    slater_determinant,
    verify_vertex,
    weight_graph_disconnected,
)


def _random_state(rng, n, r, n_terms=4) -> WedgeState:
    subsets = list(itertools.combinations(range(1, r + 1), n))
    picks = rng.choice(len(subsets), size=min(n_terms, len(subsets)), replace=False)
    amps = {}
    for k in picks:
        amps[subsets[int(k)]] = amplitude(
            1 if rng.integers(0, 2) else -1, Fraction(int(rng.integers(1, 9)), 8)
        )
    return WedgeState(n, r, amps)


def test_amplitude_validation():
    with pytest.raises(ValueError):
        amplitude(2, 1)
    with pytest.raises(ValueError):
        amplitude(1, -1)
    a = amplitude(-1, Fraction(1, 2))
    assert float(a) == pytest.approx(-(0.5**0.5))


def test_wedge_state_validation():
    with pytest.raises(ValueError):
        WedgeState(2, 4, {(1, 2, 3): amplitude(1, 1)})
    with pytest.raises(ValueError):
        WedgeState(2, 4, {(2, 2): amplitude(1, 1)})
    with pytest.raises(ValueError):
        WedgeState(2, 4, {(3, 1): amplitude(1, 1)})
    with pytest.raises(ValueError):
        WedgeState(2, 4, {(1, 5): amplitude(1, 1)})
    with pytest.raises(ValueError):
        WedgeState(2, 4, {(1, 2): amplitude(1, 0)})


def test_states_compare_hash_and_print_by_value():
    psi = WedgeState(2, 4, {(1, 2): amplitude(1, Fraction(1, 2)), (3, 4): amplitude(-1, Fraction(1, 2))})
    same = WedgeState(2, 4, {(3, 4): (-1, "1/2"), (1, 2): (1, "1/2")})
    assert psi == same and hash(psi) == hash(same)
    assert psi != WedgeState(2, 5, same.amplitudes)
    assert psi != WedgeState(2, 4, {(1, 2): amplitude(1, Fraction(1, 2)), (3, 4): amplitude(1, Fraction(1, 2))})
    assert eval(repr(psi), {"WedgeState": WedgeState, "Amplitude": type(amplitude(1, 1)), "Fraction": Fraction}) == psi
    tab = TableauState((2, 1), 3, {((1, 1), (2,)): amplitude(1, 1)})
    assert tab == TableauState([2, 1], 3, {((1, 1), (2,)): (1, 1)})
    assert hash(tab) == hash(TableauState((2, 1), 3, {((1, 1), (2,)): (1, 1)}))
    assert tab != TableauState((2, 1), 3, {((1, 2), (2,)): amplitude(1, 1)})
    assert repr(tab).startswith("TableauState((2, 1), 3, {")
    assert psi != tab


def test_from_terms_accepts_plain_dicts():
    psi = WedgeState.from_terms(
        2, 4, [{"subset": [1, 2], "radicand": "1/2"}, {"subset": [3, 4], "sign": -1, "radicand": "1/2"}]
    )
    assert psi.norm_squared() == 1
    assert psi.support() == [(1, 2), (3, 4)]
    assert psi.amplitudes[(3, 4)].sign == -1


def test_slater_determinant_occupations():
    psi = slater_determinant(3, 6)
    occ = occupation_numbers(psi)
    assert list(occ) == [1, 1, 1, 0, 0, 0]
    assert all(isinstance(x, Fraction) for x in occ)


def test_one_particle_rdm_exact_slater():
    rdm = one_particle_rdm(slater_determinant(2, 4))
    assert rdm.exact
    assert rdm.is_diagonal()
    arr = rdm.as_array()
    assert arr.shape == (4, 4)
    assert float(arr[0, 0]) == 1.0


def test_rdm_trace_is_particle_count():
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = _random_state(rng, 2, 5)
        arr = one_particle_rdm(psi).as_array().astype(float)
        assert np.trace(arr) == pytest.approx(2.0, abs=1e-12)


def test_rdm_matches_dense_antisymmetrized_tensor():
    rng = np.random.default_rng(29)
    for n, r in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 6)]:
        for _ in range(8):
            psi = _random_state(rng, n, r)
            direct = one_particle_rdm(psi).as_array().astype(float)
            dense = tensor_rdm(psi)
            assert np.max(np.abs(direct - dense)) < 1e-12, (n, r)


def test_rdm_float_fallback_for_irrational_products():
    # amplitudes sqrt(1/2) and sqrt(1/3) give an irrational cross term
    psi = WedgeState(
        2,
        3,
        {
            (1, 2): amplitude(1, Fraction(1, 2)),
            (1, 3): amplitude(1, Fraction(1, 3)),
        },
    )
    rdm = one_particle_rdm(psi)
    assert not rdm.exact
    dense = tensor_rdm(psi)
    assert np.max(np.abs(rdm.as_array().astype(float) - dense)) < 1e-12


def test_occupation_numbers_sorted_and_bounded():
    rng = np.random.default_rng(31)
    for _ in range(20):
        psi = _random_state(rng, 3, 6)
        occ = [float(x) for x in occupation_numbers(psi)]
        assert occ == sorted(occ, reverse=True)
        assert all(-1e-12 <= x <= 1 + 1e-12 for x in occ)
        assert sum(occ) == pytest.approx(3.0, abs=1e-9)


def test_weight_graph_disconnected():
    assert weight_graph_disconnected([(1, 2), (3, 4)])
    assert not weight_graph_disconnected([(1, 2), (1, 3)])
    # moving two particles at once does not couple the pair
    assert weight_graph_disconnected([(1, 2), (3, 4), (5, 6)])


def test_dadok_kac_spectrum_matches_eigenvalues():
    psi = WedgeState(
        2,
        4,
        {
            (1, 2): amplitude(1, Fraction(3, 4)),
            (3, 4): amplitude(-1, Fraction(1, 4)),
        },
    )
    diag = dadok_kac_spectrum(psi)
    assert diag == (Fraction(3, 4), Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))
    assert sorted(diag, reverse=True) == list(occupation_numbers(psi))


def test_dadok_kac_spectrum_rejects_coupled_support():
    psi = WedgeState(
        2,
        3,
        {
            (1, 2): amplitude(1, Fraction(1, 2)),
            (1, 3): amplitude(1, Fraction(1, 2)),
        },
    )
    with pytest.raises(ValueError):
        dadok_kac_spectrum(psi)


def test_paired_flat_state_is_flat():
    psi = paired_flat_state(4)
    assert psi.levels == 6
    occ = occupation_numbers(psi)
    assert set(occ) == {Fraction(2, 3)}
    with pytest.raises(ValueError):
        paired_flat_state(3)


def test_level_merged_state_occupations():
    psi = level_merged_state(3, 3)
    assert psi.levels == 7
    occ = dadok_kac_spectrum(psi)
    assert occ == (1,) + (Fraction(1, 3),) * 6
    with pytest.raises(ValueError):
        level_merged_state(1, 2)


def test_verify_vertex_on_bundled_tables():
    for name in ("3x7", "4x8"):
        table = vertex_table(name)
        for row in table["rows"][:5]:
            assert verify_vertex(row["state"], row["ratio"]), (name, row["ratio"])


def test_verify_vertex_rejects_wrong_ratio():
    psi = slater_determinant(2, 4)
    assert verify_vertex(psi, (1, 1, 0, 0))
    # the ratio is compared as a spectrum, so reordering it changes nothing
    assert verify_vertex(psi, (1, 0, 1, 0))
    assert not verify_vertex(psi, (2, 1, 1, 0))
    with pytest.raises(ValueError):
        verify_vertex(psi, (1, 1, 0))
    with pytest.raises(ValueError):
        verify_vertex(psi, (0, 0, 0, 0))


def test_wedge_state_refuses_fractional_indices():
    with pytest.raises(ValueError, match="wedge index must be an integer"):
        WedgeState(2, 4, {(1.9, 3.2): amplitude(1, 1)})


def test_tableau_state_refuses_fractional_entries():
    with pytest.raises(ValueError, match="tableau entry must be an integer"):
        TableauState((2, 1), 3, {((1.5, 1.9), (2.2,)): (1, 1)})


def test_amplitude_refuses_a_fractional_sign():
    with pytest.raises(ValueError, match="sign must be an integer"):
        amplitude(1.7, 1)
    # integral numpy and Fraction inputs are still read as ints
    assert amplitude(np.int64(-1), 1) == amplitude(Fraction(-1), 1) == (-1, 1)
    assert WedgeState(2, 4, {(np.int64(1), Fraction(3)): (1, 1)}).support() == [(1, 3)]


def test_verify_vertex_reads_each_ratio_type_exactly():
    psi = level_merged_state(3, 3)  # spectrum (1, 1/3, ..., 1/3)
    assert verify_vertex(psi, (3, 1, 1, 1, 1, 1, 1))
    assert verify_vertex(psi, (Fraction(3, 10),) + (Fraction(1, 10),) * 6)
    assert verify_vertex(psi, ("3/10",) + ("0.1",) * 6)
    # a float keeps its decimal meaning: as a binary fraction, 0.3 is not 3 * 0.1
    assert verify_vertex(psi, (0.3,) + (0.1,) * 6)
    assert not verify_vertex(psi, (Fraction(0.3),) + (Fraction(0.1),) * 6)
    with pytest.raises(ValueError):
        verify_vertex(psi, (True,) * 7)
