"""Separable log-kernel integrals against the dense shifted-gather reference,
and the work each public entry point does per call."""

import sys

import numpy as np
import pytest

import dense_reference as ref
from vortexpatch import dynamics, geometry, linearized
from vortexpatch.geometry import PatchState
from vortexpatch.spectral import PeriodicField, theta_grid

GRIDS = (32, 64, 256)
STATES = ("equilibrium", "reversible", "non_reversible")


def make_state(kind, M):
    th = theta_grid(M)
    if kind == "equilibrium":
        return PatchState(0.5, PeriodicField(np.zeros(M)))
    if kind == "reversible":
        return PatchState(0.5, PeriodicField(2e-2 * np.cos(2 * th) + 5e-3 * np.cos(5 * th)))
    r = 1e-2 * np.sin(3 * th) + 4e-3 * np.cos(th + 0.7) + 2e-3 * np.sin(7 * th)
    return PatchState(0.7, PeriodicField(r))


def assert_matches(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("M", GRIDS)
@pytest.mark.parametrize("kind", STATES)
class TestAgainstDenseReference:
    def test_velocity_functional(self, kind, M):
        st = make_state(kind, M)
        assert_matches(dynamics.velocity_functional(st).values, ref.velocity_functional(st))

    def test_transport_coefficient(self, kind, M):
        st = make_state(kind, M)
        assert_matches(linearized.transport_coefficient(st).values,
                       ref.transport_coefficient(st))

    def test_nonlocal_pieces(self, kind, M):
        st = make_state(kind, M)
        th = theta_grid(M)
        rng = np.random.default_rng(M)
        real = sum(rng.standard_normal() * np.cos(j * th + rng.uniform(0, 7)) / j
                   for j in range(1, M // 3))
        cplx = real + 1j * np.sin(3 * th) + np.exp(-5j * th)
        for rho in (real, cplx):
            log_A, log_B = geometry.log_kernel_integrals(st, rho[:, None])
            assert_matches(log_A[:, 0], ref.nonlocal_L(st, rho))
            assert_matches(log_B[:, 0], ref.smoothing_S(st, rho))

    def test_assemble(self, kind, M):
        st = make_state(kind, M)
        N = min(16, M // 3)
        assert_matches(linearized.assemble(st, N).entries[0], ref.assemble(st, N))


# ---------------------------------------------------------------------------
# work per call
# ---------------------------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Count the log-table builds and V_r evaluations, wherever they are called from."""
    tally = {}
    for owner, name in ((geometry, "smooth_log_tables"), (linearized, "transport_coefficient")):
        fn = getattr(owner, name)
        tally[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("vortexpatch") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return tally


def test_assemble_work_count(calls):
    linearized.assemble(make_state("non_reversible", 256), 16)
    assert calls == {"smooth_log_tables": 1, "transport_coefficient": 1}


def test_velocity_functional_work_count(calls):
    dynamics.velocity_functional(make_state("reversible", 64))
    assert calls == {"smooth_log_tables": 1, "transport_coefficient": 0}
