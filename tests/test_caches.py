"""Operators built once per control value: each cached operator equals its
inline construction bit for bit, is read-only, and each cache stays within
its bound; a NaN control value still fails validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionlink import analysis, fitting, ion_photon
from ionlink.analysis import apply_analysis_pulse, parity_scan
from ionlink.ion_photon import (
    PAIR_DIMS,
    PHOTON,
    coherence_scan,
    correlation_scan,
    raman_rotation,
    waveplate_unitary,
)
from ionlink.quantum import apply_unitary, cache_by_value, lift
from ionlink.swap import bell_state
from qutil import density, ideal_pair_state, ket

# fixed examples and no timing checks, so a loaded machine cannot fail a run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

controls = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi / 2.0]),
                     st.floats(-4.0 * np.pi, 4.0 * np.pi))
grids = arrays(float, st.integers(0, 30), elements=controls)
frequencies = st.one_of(st.sampled_from([1.0, 2.0, 4.0, 0.0, -0.0]),
                        st.floats(-8.0, 8.0))


def _kron_pulse(phase):
    r = raman_rotation(phase)
    return np.kron(r, r)


def _pulse_stack(grid):
    return np.array([_kron_pulse(p) for p in grid], dtype=complex).reshape(grid.shape + (4, 4))


def _solver(x, k):
    design = np.column_stack([np.sin(k * x), np.cos(k * x), np.ones_like(x)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0]))
    return design, (vt[:rank].T / s[:rank]) @ u[:, :rank].T, rank


# (cache, arguments from one drawn grid and frequency, inline construction)
CACHES = {
    "pulse": (analysis._pulse, lambda g, k: (float(g[0]),),
              lambda g, k: _kron_pulse(g[0])),
    "pulse_stack": (analysis._pulse_stack, lambda g, k: (g,),
                    lambda g, k: _pulse_stack(g)),
    "two_pulse_stack": (analysis._two_pulse_stack, lambda g, k: (g,),
                        lambda g, k: _pulse_stack(g) @ _kron_pulse(0.0)),
    "half_wave_stack": (ion_photon._half_wave_stack, lambda g, k: (g,),
                        lambda g, k: lift(waveplate_unitary(g), PHOTON, PAIR_DIMS)),
    "raman_stack": (ion_photon._raman_stack, lambda g, k: (g,),
                    lambda g, k: raman_rotation(g)),
    "fit_solver": (fitting._solver, lambda g, k: (g, k), _solver),
}
# a pulse needs one phase and a fit solver the 3 points of a fit
MIN_POINTS = {"pulse": 1, "fit_solver": 3}


def _assert_same(cached, inline):
    if isinstance(inline, tuple):  # the fit solver: design, pseudo-inverse, rank
        assert type(cached) is tuple and len(cached) == len(inline)
        *arrays, rank = inline
        assert cached[-1] == rank
        for c, i in zip(cached, arrays):
            _assert_same(c, i)
        return
    assert np.array_equal(cached, inline)
    assert cached.shape == inline.shape and cached.tobytes() == inline.tobytes()
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[...] = 0.0


@PROPERTY
@given(drawn=st.lists(st.tuples(grids, frequencies), min_size=1, max_size=8))
def test_cached_operator_equals_inline_construction(drawn):
    for name, (cache, args, inline) in CACHES.items():
        for g, k in drawn + drawn[::-1]:  # the second pass hits or rebuilds
            if g.size >= MIN_POINTS.get(name, 0):
                _assert_same(cache(*args(g, k)), inline(g, k))


def test_negative_zero_keys_its_own_entry():
    calls = []

    @cache_by_value(maxsize=4)
    def signs(x):
        calls.append(x.copy())
        return np.array(np.copysign(1.0, x))

    assert signs(np.array([0.0, -0.0])).tolist() == [1.0, -1.0]
    assert signs(np.array([-0.0, 0.0])).tolist() == [-1.0, 1.0]
    assert signs(-0.0) == -1.0 and signs(0.0) == 1.0
    assert len(calls) == 4
    nan = np.array([np.nan])
    assert signs(nan) is signs(nan.copy())  # a NaN key repeats
    assert signs.cache_info().currsize == 4


def test_hit_returns_the_built_array_and_scans_repeat():
    grid = np.linspace(0.0, np.pi, 13)
    assert analysis._pulse_stack(grid) is analysis._pulse_stack(grid.copy())
    assert analysis._pulse(0.25) is analysis._pulse(0.25)
    rho = density(bell_state(+1, 0.4))
    first, again = parity_scan(rho, grid), parity_scan(rho, list(grid))
    assert first.series["parity"].tobytes() == again.series["parity"].tobytes()
    assert first.fits == again.fits


def test_each_cache_stays_within_its_bound():
    bounds = {"pulse": 32, "pulse_stack": 4, "two_pulse_stack": 4, "half_wave_stack": 4,
              "raman_stack": 4, "fit_solver": 8}
    rng = np.random.default_rng(11)
    for name, (cache, args, inline) in CACHES.items():
        cache.cache_clear()
        for n in range(200):
            grid, k = rng.uniform(-np.pi, np.pi, 3 + n % 7), float(n % 5)
            _assert_same(cache(*args(grid, k)), inline(grid, k))
            info = cache.cache_info()
            assert info.maxsize == bounds[name]
            assert info.currsize <= info.maxsize
        assert info.currsize == info.maxsize


NAN_CALLS = {
    "pulse": lambda: apply_analysis_pulse(density(bell_state(+1)), np.nan),
    "two_pulse_scan": lambda: parity_scan(density(bell_state(+1)), [0.0, np.nan, 1.0]),
    "one_pulse_scan": lambda: parity_scan(density(bell_state(+1)), [0.0, np.nan, 1.0],
                                          pulses="one"),
    "correlation_scan": lambda: correlation_scan(density(ideal_pair_state()),
                                                 [0.0, np.nan, 1.0]),
    "coherence_scan": lambda: coherence_scan(density(ket([0])), [0.0, 1.0, np.nan]),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_control_still_fails_validation(name):
    for _ in range(2):  # the second call finds the NaN operator cached
        with pytest.raises(ValueError,
                           match=r"^matrix not Hermitian: max \|rho - rho\^dag\| = nan$"):
            NAN_CALLS[name]()


def test_cached_pulse_matches_uncached_application():
    rho = density(bell_state(-1, 1.1))
    for phase in (0.0, -0.0, 0.3, 2.0 * np.pi):
        expected = apply_unitary(rho, _kron_pulse(phase))
        assert np.array_equal(apply_analysis_pulse(rho, phase).matrix, expected.matrix)
