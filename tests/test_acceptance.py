"""Acceptance suite: fourteen numbered criteria, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; each test is independent and completes in under five minutes.
"""

import json

import numpy as np
import pytest
from scipy import integrate

from dense_reference import kernel_B, measure_curve, smooth_factor_v1
from vortexpatch.cantor import DiophantineSpec, excluded_measure
from vortexpatch.cli import main as cli_main
from vortexpatch.dynamics import (
    EvolutionConfig,
    extract_frequencies,
    hamiltonian,
    quasi_periodic_seed,
    simulate,
    velocity_functional,
)
from vortexpatch.geometry import PatchState
from vortexpatch.kam import (
    ReductionState,
    TransportProblem,
    golden_frequency,
    run_remainder_kam,
    straighten_transport,
    synthetic_reversible_remainder,
)
from vortexpatch.linearized import assemble, transport_coefficient
from vortexpatch.spectral import (
    PeriodicField,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    offdiag_norm,
    spectral_derivative,
    theta_grid,
)
from vortexpatch.spectrum import (
    FrequencySystem,
    omega,
    perturbed_transversality,
    transversality_scan,
)


def omega_eq(b, j):
    return np.sign(j) * 0.5 * (abs(j) - 1 + b ** (2 * abs(j)))


def report(n, text):
    print(f"\nCRITERION {n:2d}: PASS — {text}")


def zero_state(b, M=64):
    return PatchState(b, PeriodicField(np.zeros(M)))


# ---------------------------------------------------------------------------
# 1. multiplier identities
# ---------------------------------------------------------------------------

def test_criterion_01_multiplier_identities():
    M = 1024
    worst = 0.0
    for j in range(1, 33):
        val, _ = integrate.quad(
            lambda u, j=j: np.log(np.sin(0.5 * u) ** 2) * np.cos(j * u),
            0.0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
        val /= np.pi  # even integrand: half interval, normalized measure
        worst = max(worst, abs(val + 1.0 / j))
        # the solver's closed-form coefficient table at M = 1024 (K1 carries
        # the 1/2 of log sin^2, so its mode-j entry is -1/(2j))
        worst = max(worst, abs(2.0 * k1_multiplier_coeffs(M)[j] + 1.0 / j))
    for b in (0.25, 0.5, 0.9):
        for j in range(1, 33):
            val, _ = integrate.quad(
                lambda u, b=b, j=j: np.log(np.abs(1 - b * b * np.exp(1j * u)))
                * np.cos(j * u),
                0.0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
            val /= np.pi
            target = -b ** (2 * j) / (2 * j)
            worst = max(worst, abs(val - target))
            worst = max(worst, abs(k2_multiplier_coeffs(M, b)[j] - target))
    assert worst < 1e-10
    report(1, f"both log-kernel identities, j <= 32, worst error {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. equilibrium transport speed
# ---------------------------------------------------------------------------

def test_criterion_02_equilibrium_speed():
    worst = 0.0
    for b in (0.25, 0.5, 0.75):
        V = transport_coefficient(zero_state(b)).values
        worst = max(worst, float(np.max(np.abs(V - 0.5))))
    assert worst < 1e-10
    report(2, f"V0 = 1/2 at r = 0 for three radii, worst deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. equilibrium stationarity and diagonalization
# ---------------------------------------------------------------------------

def test_criterion_03_stationarity_and_diagonal():
    sup_F = max(float(np.max(np.abs(velocity_functional(zero_state(b)).values)))
                for b in (0.25, 0.5, 0.75))
    assert sup_F <= 1e-12
    b = 0.5
    G = assemble(zero_state(b), 16)
    E = G.entries[0]
    off = float(np.max(np.abs(E - np.diag(np.diag(E)))))
    diag_err = max(abs(E[a, a] - (-1j * omega_eq(b, int(j))))
                   for a, j in enumerate(G.jmodes))
    assert off <= 1e-9
    assert diag_err <= 1e-9
    report(3, f"|F_b[0]| = {sup_F:.2e}, matrix off-diag {off:.2e}, "
              f"diagonal vs -i Omega_j {diag_err:.2e}")


# ---------------------------------------------------------------------------
# 4. linear flow exactness
# ---------------------------------------------------------------------------

def test_criterion_04_linear_flow():
    b, M = 0.5, 64
    th = theta_grid(M)
    amps = {1: 2e-3, 2: 1e-3}  # tangential set {1, 2}
    jn = np.fft.fftfreq(M, 1.0 / M).astype(int)
    mult = np.zeros(M, dtype=complex)
    nz = jn != 0
    mult[nz] = -omega_eq(b, np.abs(jn[nz])) / np.abs(jn[nz])  # even in j
    worst = 0.0
    for t in (0.0, 0.7, 2.3, 11.0):
        rho = sum(a * np.cos(j * th - omega_eq(b, j) * t) for j, a in amps.items())
        drho_dt = sum(a * omega_eq(b, j) * np.sin(j * th - omega_eq(b, j) * t)
                      for j, a in amps.items())
        c = np.fft.fft(rho, norm="forward")
        Lrho = np.fft.ifft(c * mult, norm="forward").real
        worst = max(worst, float(np.max(np.abs(drho_dt - spectral_derivative(Lrho)))))
    assert worst <= 1e-12
    report(4, f"d_t rho - d_theta L(b) rho residual {worst:.3e}")


# ---------------------------------------------------------------------------
# 5. conservation and dt-refinement order
# ---------------------------------------------------------------------------

def test_criterion_05_conservation():
    st = quasi_periodic_seed(0.5, {2: 1e-3}, M=64)
    traj = simulate(st, EvolutionConfig(dt=1e-3, T=5.0, record_stride=5000, track_modes=()))
    assert not traj.aborted
    rel = abs(traj.hamiltonians[-1] - traj.hamiltonians[0]) / abs(traj.hamiltonians[0])
    mean = abs(traj.means[-1] - traj.means[0])
    assert rel <= 1e-8
    assert mean <= 1e-12

    # dt-refinement: Hamiltonian drift attributable to the time step,
    # measured against a dt_ref = 1.25e-4 run of the same truncated system
    th = theta_grid(64)
    r0 = 0.05 * np.cos(2 * th) + 0.04 * np.cos(5 * th) + 0.02 * np.cos(8 * th)

    def final_H(dt):
        nsteps = int(round(2.0 / dt))
        tr = simulate(PatchState(0.5, PeriodicField(r0.copy())),
                      EvolutionConfig(dt=dt, T=2.0, record_stride=nsteps, track_modes=()))
        assert not tr.aborted
        return tr.hamiltonians[-1]

    H_ref = final_H(1.25e-4)
    dts = np.array([2e-3, 1e-3, 5e-4])
    drifts = np.array([abs(final_H(dt) - H_ref) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    assert abs(slope - 4.0) <= 0.3
    report(5, f"rel H drift {rel:.3e}, mean drift {mean:.3e}, "
              f"dt-refinement slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 6. frequency recovery
# ---------------------------------------------------------------------------

def test_criterion_06_frequency_recovery():
    b, j = 0.5, 2
    eps_list = (1e-4, 1e-3, 1e-2)
    errs = []
    for eps in eps_list:
        st = quasi_periodic_seed(b, {j: eps}, M=64)
        traj = simulate(st, EvolutionConfig(dt=0.05, T=500.0,
                                            record_stride=10 ** 9,
                                            track_modes=(j,)))
        assert not traj.aborted
        errs.append(abs(extract_frequencies(traj, j) - omega_eq(b, j)))
    slope = np.polyfit(np.log(np.array(eps_list)), np.log(np.array(errs)), 1)[0]
    assert slope >= 0.9
    report(6, f"frequency errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
              f"log-log slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 7. Hamiltonian quadratic form
# ---------------------------------------------------------------------------

def test_criterion_07_quadratic_form():
    b, M, eps = 0.5, 64, 1e-3
    th = theta_grid(M)
    rho = np.cos(2 * th) + 0.5 * np.cos(3 * th) + 0.25 * np.cos(5 * th)
    H0 = hamiltonian(zero_state(b, M))
    H = hamiltonian(PatchState(b, PeriodicField(eps * rho)))
    measured = (H - H0) / eps ** 2
    c = np.fft.fft(rho, norm="forward")
    jn = np.fft.fftfreq(M, 1.0 / M).astype(int)
    nz = jn != 0
    exact = -np.sum(omega_eq(b, np.abs(jn[nz])) / (2.0 * np.abs(jn[nz]))
                    * np.abs(c[nz]) ** 2)
    rel = abs(measured - exact) / abs(exact)
    assert rel <= 1e-3
    report(7, f"(H(eps rho) - H(0))/eps^2 vs quadratic form, rel err {rel:.3e}")


# ---------------------------------------------------------------------------
# 8. oracle equivalence of the linearized matrix
# ---------------------------------------------------------------------------

def test_criterion_08_kress_oracle():
    # brute force: dense log-corrected trigonometric weight matrix for the
    # K1 kernel plus pointwise quadrature of the smooth factors
    M, N, b, eps = 256, 8, 0.5, 1e-3
    th = theta_grid(M)
    st = PatchState(b, PeriodicField(eps * np.cos(2 * th)))
    u = th[None, :] - th[:, None]
    W = np.zeros((M, M))
    for m in range(1, M // 2):
        W += -np.cos(m * u) / m
    W += -np.cos((M // 2) * u) / M  # half-weight Nyquist band
    KW = W / M

    v1 = smooth_factor_v1(st)
    log_smooth_A = np.log(b * v1)
    logB = np.log(kernel_B(st))
    dR = st.dR
    D1 = dR[None, :] * np.sin(u) + st.R[None, :] * np.cos(u)
    V = (
        -0.5 * np.mean(st.R ** 2) / st.R ** 2
        - (np.sum(KW * D1, axis=1) + (log_smooth_A * D1).mean(axis=1)) / st.R
        - (logB * D1).mean(axis=1) / st.R ** 3
    )
    jmodes = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    E = np.zeros((2 * N, 2 * N), dtype=complex)
    for c, j0 in enumerate(jmodes):
        rho = np.exp(1j * j0 * th)
        Lr = KW @ rho + (log_smooth_A * rho[None, :]).mean(axis=1)
        Sr = (logB * rho[None, :]).mean(axis=1)
        g = V * rho + Lr - Sr  # complex: d_theta of each part
        col = -(spectral_derivative(g.real) + 1j * spectral_derivative(g.imag))
        ch = np.fft.fft(col, norm="forward")
        for a, j in enumerate(jmodes):
            E[a, c] = ch[int(j) % M]
    G = assemble(st, N)
    worst = float(np.max(np.abs(G.entries[0] - E)))
    assert worst < 1e-6
    report(8, f"assembled matrix vs log-corrected quadrature, "
              f"entrywise {worst:.3e}")


# ---------------------------------------------------------------------------
# 9. transversality
# ---------------------------------------------------------------------------

def test_criterion_09_transversality():
    sysf = FrequencySystem((1, 2), 0.1, 0.9)
    assert sysf.q0 == 6
    rep = transversality_scan(sysf, Lmax=20, grid_size=10 ** 4)
    assert rep.rho0_hat > 0
    assert set(rep.per_case) == {"i", "ii", "iii", "iv"}
    for case, data in rep.per_case.items():
        assert data["rho0_hat"] > 0, f"case {case} not positive"
    out = perturbed_transversality(sysf, eps_hat=1e-4, Lmax=20,
                                   grid_size=10 ** 4, seed=0, baseline=rep)
    assert out["retains_half"]
    assert out["rho0_hat_perturbed"] >= 0.5 * rep.rho0_hat
    report(9, f"rho0_hat = {rep.rho0_hat:.5f} (all four cases positive), "
              f"perturbed {out['rho0_hat_perturbed']:.5f} retains half")


# ---------------------------------------------------------------------------
# 10. Russmann certification
# ---------------------------------------------------------------------------

def test_criterion_10_russmann():
    sysf = FrequencySystem((1, 2), 0.1, 0.9)
    totals = {}
    for kind in ("transport", "first-order-Melnikov", "second-order-Melnikov"):
        rep = excluded_measure(sysf, DiophantineSpec(gamma=1e-3, kind=kind,
                                                     Lmax=20, tau2=13.0))
        assert rep.russmann_violations == 0, kind
        totals[kind] = rep.total
    report(10, "zero interval-bound violations at Lmax = 20 for all three "
               f"divisor kinds (totals {totals['transport']:.4g} / "
               f"{totals['first-order-Melnikov']:.4g} / "
               f"{totals['second-order-Melnikov']:.4g})")


# ---------------------------------------------------------------------------
# 11. Cantor-measure asymptotics
# ---------------------------------------------------------------------------

def test_criterion_11_measure_asymptotics():
    sysf = FrequencySystem((1, 2), 0.1, 0.9)
    spec = DiophantineSpec(gamma=1e-2, kind="first-order-Melnikov", Lmax=20, tau2=13.0)
    gammas = [1e-2, 1e-3, 1e-4, 1e-5]
    out = measure_curve(sysf, spec, gammas)
    ms = out["measures"]
    assert all(a > b for a, b in zip(ms, ms[1:])), "not strictly decreasing"
    assert out["fitted_exponent"] >= 1.0 / sysf.q0
    # gamma -> 0: excluded measure vanishes, surviving set fills b1 - b0
    assert ms[-1] < 1e-3 * (sysf.b1 - sysf.b0)
    report(11, f"excluded measure {ms[0]:.4g} > {ms[1]:.4g} > {ms[2]:.4g} > "
               f"{ms[3]:.4g}, exponent {out['fitted_exponent']:.2f} >= 1/6")


# ---------------------------------------------------------------------------
# 12. transport straightening
# ---------------------------------------------------------------------------

def test_criterion_12_transport():
    K, M = 16, 64
    th = theta_grid(M)
    f0 = PeriodicField(np.broadcast_to(0.1 * np.cos(th), (K, M)).copy())
    res = straighten_transport(TransportProblem(golden_frequency(1), f0, V0=0.5, gamma=1e-3,
                                                upsilon=0.5, tau1=3.0), steps=8)
    assert res.reducible
    err = abs(res.V_infty - np.sqrt(0.24))
    assert err < 1e-8

    # superlinear contraction at |f0| = 1e-3 over four recorded steps
    ph = theta_grid(K)
    small = 1e-3 * (np.cos(ph)[:, None] * np.cos(th)[None, :]
                    + 0.5 * np.cos(2 * th)[None, :]
                    + 0.3 * np.sin(ph)[:, None] * np.sin(th)[None, :])
    res2 = straighten_transport(
        TransportProblem(golden_frequency(1), PeriodicField(small), V0=0.5, gamma=1e-3,
                         upsilon=0.5, tau1=3.0), steps=6)
    # fit only above the round-off floor: once delta hits ~1e-15 the history
    # measures machine noise, not the contraction rate
    deltas = [row[1] for row in res2.history if row[1] > 1e-13]
    logs = np.log(np.array(deltas))
    slope = np.polyfit(logs[:-1], logs[1:], 1)[0] if len(logs) > 2 \
        else logs[1] / logs[0]
    assert slope >= 1.4
    report(12, f"V_infty - sqrt(0.24) = {err:.2e}, contraction slope {slope:.2f}")


# ---------------------------------------------------------------------------
# 13. remainder reduction
# ---------------------------------------------------------------------------

def test_criterion_13_remainder():
    N, L, delta0, b = 8, 8, 1e-3, 0.5
    R = synthetic_reversible_remainder(N, L, delta0, seed=0)
    jm = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    mu0 = np.array([float(omega(b, int(j))) for j in jm])
    state = ReductionState(omega=golden_frequency(1), mu=mu0.copy(), R=R, step=0)
    res, history, _ = run_remainder_kam(state, steps=3, gamma=1e-2, tau2=2.5)
    res.assert_invariants()  # realness/reversibility/oddness exact
    deltas = [row[1] for row in history]
    assert deltas[-1] < deltas[0]
    logs = np.log(np.array([d for d in deltas if d > 0]))
    slope = np.polyfit(logs[:-1], logs[1:], 1)[0]
    assert slope >= 1.4
    # mu_j^infty = Omega_j(b) + j (V_infty - 1/2) + r_j with V_infty = 1/2
    r_inf = res.mu - mu0
    bound = float(np.max(np.abs(jm) * np.abs(r_inf)))
    assert bound <= 10.0 * delta0
    report(13, f"delta {deltas[0]:.2e} -> {deltas[-1]:.2e} (slope {slope:.2f}), "
               f"invariants exact, sup |j||r_j| = {bound:.2e} <= 10 delta0")


# ---------------------------------------------------------------------------
# 14. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_14_cli_determinism(tmp_path):
    def run(args):
        with pytest.raises(SystemExit) as exc:
            cli_main(list(args))
        assert exc.value.code == 0

    outputs = []
    for name in ("a", "b"):
        d = tmp_path / name
        run(["cantor", "--gamma", "1e-3", "--sites", "1,2", "--lmax", "3",
             "--output-dir", str(d / "cantor")])
        run(["kam-remainder", "--seed", "11", "--steps", "2",
             "--output-dir", str(d / "kam")])
        run(["spectrum", "--b", "0.5", "--jmax", "8",
             "--output-dir", str(d / "spec")])
        outputs.append(tuple(
            (d / sub / fn).read_bytes()
            for sub, fn in (("cantor", "cantor_intervals.csv"),
                            ("cantor", "cantor_summary.json"),
                            ("kam", "kam_remainder_history.csv"),
                            ("kam", "kam_remainder_spectrum.json"),
                            ("spec", "spectrum_omega.csv"))))
    assert outputs[0] == outputs[1]
    report(14, "repeated runs byte-identical across cantor, kam-remainder, "
               "and spectrum artifacts")
