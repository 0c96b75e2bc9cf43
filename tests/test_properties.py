"""Property tests of the array-native bound-state core over drawn parameters."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdem import checks, model
from pdem.model import ModelParams, WavefunctionForm

constants = st.floats(0.5, 2.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(b2=st.floats(0.6, 40.0), m0=constants, omega=constants, hbar=constants,
       level=st.floats(0.0, 1.0))
def test_array_core(b2, m0, omega, hbar, level):
    p = ModelParams(m0=m0, omega=omega, hbar=hbar, a=math.sqrt(b2 * hbar / (m0 * omega)))
    n_max = model.max_level(p)
    n = min(int(level * (n_max + 1)), n_max)
    state = model.bound_state(p, n)
    # the default grid of `pdem wavefunction`
    xs = np.linspace(-p.a * (1.0 - 1e-3), p.a + 8.0 / p.lambda0, 201)
    psi = state.psi(xs)
    # the scalar wrapper runs the same core: equal bit for bit (NaN would fail)
    assert psi.tolist() == [model.wavefunction(p, n, x) for x in xs.tolist()]
    # pointwise relative error is ill-posed at the nodes of psi, so the two
    # closed forms are compared on the scale of the grid's largest value
    laguerre = state.psi(xs, WavefunctionForm.LAGUERRE)
    assert np.max(np.abs(psi - laguerre)) <= 1e-10 * np.max(np.abs(psi))
    assert abs(checks.bound_overlap(p, n_max, n_max) - 1.0) <= 1e-10
