"""Exact two-level / two-qubit quantum mechanics: the state-vector oracle,
the one-exchange form of the Einstein-synchronization baseline, and the
plain forms of the run's fast paths.

The simulator samples outcomes from closed forms (ensemble.pos_probability
and the P = 1/2 collapse); the tests check those closed forms against this
brute-force state-vector computation, and channels.es_rms_error against a
loop of einstein_sync calls. The series writer, the transcript encoder, the
batch sampler and the stacked phase fit of a run must give the bytes,
counts, draws and fits of the plain forms at the end of this file, and its
closed-form envelope fit must come close to the per-point-solve fit there.
Nothing here is used by a run.

States are stored as complex amplitude vectors (length 2 or 4) and compared
via fidelity |<a|b>|, never amplitude-wise: a physical state is a ray, not a
vector. All operations here are pure; randomness is injected by the caller
as explicit uniform draws so that results are bit-reproducible.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from qclocksync.channels import SPEED_OF_LIGHT, MediumModel
from qclocksync.ensemble import TYPE_I, TYPE_II, pos_probability
from qclocksync.errors import (EstimationError, InconclusiveError, ProtocolOrderError,
                               QcsError, RankDeficientError, blame)
from qclocksync.estimation import (PhaseEstimate, _beat_weights, _binomial_variance,
                                   check_envelope_grid)
from qclocksync.quantum import ClockSpecies, normalize_phase

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Norm drift allowed on internally-produced states; looser bound for
# user-supplied matrices and states.
NORM_TOL = 1e-12
INPUT_TOL = 1e-9

# A measurement branch below this probability cannot be selected by a draw.
BRANCH_FLOOR = 1e-15


class NonUnitaryError(QcsError):
    """A user-supplied matrix failed the unitarity check."""


class ImpossibleBranchError(QcsError):
    """A measurement draw selected a branch with (numerically) zero probability."""


def _check_state(amps: np.ndarray, tol: float) -> np.ndarray:
    amps = np.asarray(amps, dtype=np.complex128)
    if not np.all(np.isfinite(amps.view(np.float64))):
        raise ValueError("state amplitudes must be finite")
    norm = float(np.sum(np.abs(amps) ** 2))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state not normalized: |psi|^2 = {norm!r}")
    return amps


class SingleQubitState:
    """Amplitudes (a0, a1) over the energy eigenbasis {|0>, |1>}."""

    __slots__ = ("amps",)

    def __init__(self, a0: complex, a1: complex, tol: float = INPUT_TOL):
        self.amps = _check_state(np.array([a0, a1]), tol)

    @classmethod
    def from_array(cls, amps, tol: float = INPUT_TOL) -> "SingleQubitState":
        return cls(amps[0], amps[1], tol=tol)

    def overlap(self, other: "SingleQubitState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "SingleQubitState") -> float:
        return abs(self.overlap(other))

    def __repr__(self):
        return f"SingleQubitState({self.amps[0]!r}, {self.amps[1]!r})"


class TwoQubitState:
    """Amplitudes over |0>_A|0>_B, |0>_A|1>_B, |1>_A|0>_B, |1>_A|1>_B."""

    __slots__ = ("amps",)

    def __init__(self, amps, tol: float = INPUT_TOL):
        amps = np.asarray(amps, dtype=np.complex128).reshape(4)
        self.amps = _check_state(amps, tol)

    def overlap(self, other: "TwoQubitState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "TwoQubitState") -> float:
        return abs(self.overlap(other))

    def __repr__(self):
        return f"TwoQubitState({self.amps!r})"


def dual_basis_states(phi: float) -> tuple[SingleQubitState, SingleQubitState]:
    """The dual (sigma_1) basis for equatorial phase phi.

    Returns (|pos_phi>, |neg_phi>) with
    |pos_phi> = (|0> + e^{i phi}|1>)/sqrt(2) and
    |neg_phi> = (|0> - e^{i phi}|1>)/sqrt(2).
    """
    ph = np.exp(1j * normalize_phase(phi))
    pos = SingleQubitState(SQRT_HALF, SQRT_HALF * ph)
    neg = SingleQubitState(SQRT_HALF, -SQRT_HALF * ph)
    return pos, neg


def evolution_unitary(species: ClockSpecies, dt: float) -> np.ndarray:
    """The 2x2 diagonal free-evolution unitary for dt seconds."""
    half = 0.5 * species.omega * dt
    return np.diag([np.exp(-1j * half), np.exp(1j * half)])


def singlet_state(eta: float = 0.0) -> TwoQubitState:
    """The generalized singlet (|01> - e^{i eta}|10>)/sqrt(2)."""
    return TwoQubitState([0.0, SQRT_HALF, -SQRT_HALF * np.exp(1j * eta), 0.0])


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise NonUnitaryError(f"expected a 2x2 matrix, got shape {u.shape}")
    resid = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if resid > INPUT_TOL:
        raise NonUnitaryError(f"matrix is not unitary (residual {resid:.3e})")
    return u


def apply_local(state: TwoQubitState, u_a, u_b) -> TwoQubitState:
    """Apply (U_A (x) U_B) to a joint state. Rejects non-unitary inputs."""
    u_a = _require_unitary(u_a)
    u_b = _require_unitary(u_b)
    out = np.kron(u_a, u_b) @ state.amps
    return TwoQubitState(out, tol=NORM_TOL * 10)


def dark_state_phase(u) -> float:
    """Global phase arg(det U) picked up by the singlet under U (x) U, in [0, 2*pi)."""
    u = _require_unitary(u)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    return normalize_phase(float(np.angle(det)))


def dual_projection_probability(state: TwoQubitState, which_party: str, phi) -> float:
    """Probability that a dual-basis measurement on one party yields pos."""
    pos, _ = dual_basis_states(phi)
    m = state.amps.reshape(2, 2)  # m[a, b]
    if which_party == "A":
        c = pos.amps.conj() @ m
    elif which_party == "B":
        c = m @ pos.amps.conj()
    else:
        raise ValueError(f"which_party must be 'A' or 'B', got {which_party!r}")
    return float(np.sum(np.abs(c) ** 2))


def measure_dual(state: TwoQubitState, which_party: str, phi, draw: float) -> tuple[str, TwoQubitState]:
    """Projective dual-basis measurement on one party of a joint state.

    The outcome is 'pos' iff draw < P(pos); the post-state is the renormalized
    projection. Deterministic given (state, phi, draw): the caller owns the
    randomness source.
    """
    if not (0.0 <= draw < 1.0):
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    pos, neg = dual_basis_states(phi)
    m = state.amps.reshape(2, 2)
    if which_party == "A":
        c_pos = pos.amps.conj() @ m
        c_neg = neg.amps.conj() @ m
    elif which_party == "B":
        c_pos = m @ pos.amps.conj()
        c_neg = m @ neg.amps.conj()
    else:
        raise ValueError(f"which_party must be 'A' or 'B', got {which_party!r}")
    p_pos = float(np.sum(np.abs(c_pos) ** 2))

    if draw < p_pos:
        outcome, basis_state, other = "pos", pos, c_pos
    else:
        outcome, basis_state, other = "neg", neg, c_neg
    # branch probability from the projection itself: 1 - p_pos suffers
    # catastrophic cancellation for near-deterministic branches
    branch_p = float(np.sum(np.abs(other) ** 2))
    if branch_p < BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"drawn branch {outcome!r} has probability {branch_p:.3e}"
        )
    other = other / math.sqrt(branch_p)
    if which_party == "A":
        post = np.outer(basis_state.amps, other)
    else:
        post = np.outer(other, basis_state.amps)
    return outcome, TwoQubitState(post.reshape(4), tol=NORM_TOL * 100)


def haar_random_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed 2x2 unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * SQRT_HALF
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def einstein_sync(medium: MediumModel, rng: np.random.Generator,
                  true_offset: float = 0.0) -> float:
    """Error of one round-trip Einstein-synchronization exchange through the
    medium: the estimated offset minus true_offset.

    Each leg's refractive index is an independent Gaussian draw (floored at
    vacuum); Bob's offset estimate uses the standard midpoint rule, so the
    error is the index asymmetry between the two legs.
    """
    n_fwd = max(1.0, medium.mean_index + rng.standard_normal() * medium.index_fluctuation_sigma)
    n_back = max(1.0, medium.mean_index + rng.standard_normal() * medium.index_fluctuation_sigma)
    t_fwd = medium.distance * n_fwd / SPEED_OF_LIGHT
    t_back = medium.distance * n_back / SPEED_OF_LIGHT
    # Bob timestamps the pulse arrival on his clock; Alice assumes the one-way
    # time is half the measured round trip.
    estimated = true_offset + (t_fwd - t_back) / 2.0
    return estimated - true_offset


def series_to_csv(series, path, header_comment=None) -> None:
    """PopulationSeries.to_csv, one csv.writer row per point."""
    def fmt_count(x):
        return str(int(x)) if float(x).is_integer() else repr(float(x))

    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t_seconds", "count_pos", "count_neg", "batch_size"])
        for t, cp, cn, b in zip(series.times, series.count_pos, series.count_neg,
                                series.batch_size):
            writer.writerow([repr(float(t)), fmt_count(cp), fmt_count(cn), fmt_count(b)])


def transcript_to_jsonl(records) -> str:
    """Transcript.to_jsonl, one sorted-key JSON encoding per record."""
    encoder = json.JSONEncoder(sort_keys=True)
    return "".join(encoder.encode(r) + "\n" for r in records)


def sample_batch(handle, t: float, batch_size: int, party: str, phi: float,
                 rng: np.random.Generator) -> tuple[int, int]:
    """ensemble.sample_batch on the ensemble's 0-based masks, where label l
    sits at index l - 1."""
    ens = handle.ensemble
    labels = handle._take(batch_size)
    idx = labels - 1
    if ens.type_i is None:
        raise ProtocolOrderError("cannot sample an idle pair")
    if np.any(ens.consumed[idx]):
        raise ProtocolOrderError("cannot sample a consumed pair")
    phi_meas = normalize_phase(phi)
    tau = float(t) - ens.t0
    omega = ens.species.omega
    p_i = pos_probability(party, TYPE_I, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    p_ii = pos_probability(party, TYPE_II, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    p = np.where(ens.type_i[idx], p_i, p_ii)
    draws = rng.random(labels.shape[0])
    n_pos = int(np.count_nonzero(draws < p))
    ens.consumed[idx] = True
    return n_pos, int(labels.shape[0])


def _weighted_lstsq(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Solve min_b sum w (y - X b)^2; returns (beta, covariance, chi2)."""
    sw = np.sqrt(w)
    xw, yw = x * sw[:, None], y * sw
    xtx = xw.T @ xw
    if np.linalg.matrix_rank(xtx, tol=None) < xw.shape[1]:
        raise RankDeficientError("design matrix is rank deficient")
    beta = np.linalg.solve(xtx, xw.T @ yw)
    resid = yw - xw @ beta
    return beta, np.linalg.inv(xtx), float(resid @ resid)


def estimate_phase(series, species: ClockSpecies) -> PhaseEstimate:
    """estimation.estimate_phase on one series alone: one 2-D weighted least
    squares, its checks made one after another."""
    if np.any(series.batch_size <= 0):
        raise EstimationError("series contains empty batches")
    if np.unique(series.times).shape[0] < 3:
        raise blame(RankDeficientError("phase fit needs at least 3 distinct sample times"),
                    "n_points")
    t = series.times
    y = series.p_hat()
    w = 1.0 / _binomial_variance(series.count_pos, series.batch_size)
    wt = species.omega * t
    x = np.column_stack([np.cos(wt), np.sin(wt), np.ones_like(t)])
    beta, cov, chi2 = _weighted_lstsq(x, y, w)
    a, b, _c = beta
    r2 = a * a + b * b
    if r2 <= 0.0:
        raise EstimationError("oscillation amplitude is zero; phase undefined")
    phase = math.atan2(-b, a)
    # delta method on phase = atan2(-b, a)
    grad = np.array([b / r2, -a / r2, 0.0])
    var = float(grad @ cov @ grad)
    return PhaseEstimate(
        phase=normalize_phase(phase),
        sigma=math.sqrt(max(var, 0.0)),
        n_samples_used=len(series),
        residual=chi2,
    )


def envelope_subproblem(beats, omega1: float, omega2: float):
    """The envelope's linear subproblem, solved directly: a function of the
    fast phase that returns _weighted_lstsq's (beta, covariance, chi2) for
    beta = (E sin psi_env, E cos psi_env)."""
    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t, w = beats.times, _beat_weights(beats)
    ce, se = np.cos(w_e * t), np.sin(w_e * t)
    wft = w_f * t

    def linear_fit(psi_fast: float):
        s = np.sin(wft + psi_fast)
        return _weighted_lstsq(np.column_stack([ce * s, se * s]), beats.diff, w)

    return linear_fit


def envelope_phase(beats, omega1: float, omega2: float) -> PhaseEstimate:
    """The envelope fit by search, with one direct solve of the n-row design
    per fast phase: at each of 96 grid points on [0, pi), at each step of
    scipy's bounded Brent polish between the best point's neighbours and at
    the optimum; the covariance comes from the n-row Jacobian."""
    from scipy.optimize import minimize_scalar

    if omega1 == omega2:
        raise EstimationError("envelope extraction needs two distinct frequencies")
    check_envelope_grid(beats.times, omega1, omega2)
    linear_fit = envelope_subproblem(beats, omega1, omega2)

    def chi2(psi_fast: float) -> float:
        try:
            return linear_fit(psi_fast)[2]
        except RankDeficientError:
            return math.inf

    grid = np.linspace(0.0, math.pi, 97)[:-1]
    k = int(np.argmin([chi2(psi) for psi in grid]))
    step = grid[1] - grid[0]
    with np.errstate(invalid="ignore"):  # a parabola through inf values
        psi_fast = float(minimize_scalar(chi2, bounds=(grid[k] - step, grid[k] + step),
                                         method="bounded", options={"xatol": 1e-12}).x)
    (p_coef, q_coef), _cov, chi2_min = linear_fit(psi_fast)
    amp = math.hypot(p_coef, q_coef)
    if amp == 0.0:
        raise EstimationError("envelope amplitude is zero; phase undefined")
    noise_floor = float(np.median(beats.sigma))
    if noise_floor > 0.0 and amp < 3.0 * noise_floor:
        raise InconclusiveError(
            f"envelope amplitude {amp:.3g} below noise floor 3 x {noise_floor:.3g}"
        )

    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t, sw = beats.times, np.sqrt(_beat_weights(beats))
    ce, se = np.cos(w_e * t), np.sin(w_e * t)
    s, c = np.sin(w_f * t + psi_fast), np.cos(w_f * t + psi_fast)
    j = np.column_stack([ce * s, se * s, (p_coef * ce + q_coef * se) * c])
    # two weighted copies: numpy takes a.T @ a of one array by another BLAS routine
    jtj = (j * sw[:, None]).T @ (j * sw[:, None])
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    grad = np.array([q_coef / amp**2, -p_coef / amp**2, 0.0])
    var = float(grad @ cov @ grad)
    psi_env = normalize_phase(math.atan2(p_coef, q_coef))
    if psi_env >= math.pi:
        psi_env -= math.pi
    return PhaseEstimate(phase=psi_env, sigma=math.sqrt(max(var, 0.0)),
                         n_samples_used=len(beats), residual=chi2_min)
