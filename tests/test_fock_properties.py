"""Property checks of the Fock oracle and of the closed form against it."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrmoyal as km
from test_fock import PARAMS, XI, _dense_squeezed


@settings(max_examples=12, deadline=None)
@given(s=st.floats(0.3, 1.0), radius=st.floats(0.0, 1.5),
       arg=st.floats(-math.pi, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
def test_squeezed_vector_matches_dense_operator_property(s, radius, arg, phi):
    # the recurrence coefficients do not depend on dim, so the leading 128
    # of a vector built at the dimension the state needs (at least 128) are
    # compared
    state = km.SqueezedState(radius * np.exp(1j * arg),
                             -math.log(s) / (2.0 * XI), phi, XI)
    space = km.FockSpace(max(128, km.fock_space_for(state).dim), XI)
    via_vector = km.squeezed_vector(state, space)
    assert np.max(np.abs(via_vector[:128] - _dense_squeezed(state, 128))) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(s=st.floats(0.3, 1.0), radius=st.floats(0.0, 1.5),
       arg=st.floats(-math.pi, math.pi), dphi=st.floats(-math.pi, math.pi),
       t_tilde=st.floats(0.0, 3.0 * math.pi))
def test_closed_form_matches_fock_sweep_property(s, radius, arg, dphi, t_tilde):
    # t~ is drawn over three singular periods with no window around the poles
    alpha = radius * np.exp(1j * arg)
    state = km.SqueezedState(alpha, -math.log(s) / (2.0 * XI),
                             dphi + 2.0 * arg, XI)
    space = km.fock_space_for(state)
    t = t_tilde / (XI * PARAMS.w2)
    ref = km.heisenberg_expectation_sweep(km.ObservableIndex(0, 1), np.array([t]),
                                          km.squeezed_vector(state, space),
                                          space, PARAMS)[0]
    closed = km.expectation_a_closed(t, state, PARAMS).value
    assert abs(closed - ref) <= 1e-10 * (1.0 + abs(ref))
