"""Phase and beat-envelope recovery from finite measurement counts.

The clock frequencies are exactly known constants (they define the species),
so only phases are fitted. The single-tone fit is a weighted linear least
squares in the (a, b, c) parametrization p(t) = a cos(w t) + b sin(w t) + c,
which is convex and has no initialization sensitivity; fit_phases fits
many series in one stacked solve, each with the bits of its own fit. The
beat-envelope fit has one nonlinear parameter, the fast phase; for each
fast phase the envelope parameters are an exact linear subproblem, so they
are projected out and the fast phase's profile chi2 is minimized alone.
The envelope fit reads its data points once: expanding the fast factor in
cos/sin of the fast phase makes every candidate's 2x2 normal equations
quadratic forms over one 4x4 Gram matrix of a weighted basis (_profile).
The profile is then a rational function of tan(fast phase), and its
minimum lies among the real roots of one sextic (_stationary_phases), so
the fast phase, the coefficients and their covariance come from that
matrix in closed form, with no search; only the reported residual takes
one more product with the basis.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensemble import PopulationSeries
from .errors import EstimationError, InconclusiveError, RankDeficientError, blame
from .quantum import TWO_PI, ClockSpecies, normalize_phase


@dataclass(frozen=True)
class PhaseEstimate:
    """A fitted phase (radians) with 1-standard-error uncertainty."""

    phase: float
    sigma: float
    n_samples_used: int
    residual: float  # weighted sum of squared residuals


class BeatSeries:
    """Per-time difference of two empirical oscillation estimates."""

    __slots__ = ("times", "diff", "sigma")

    def __init__(self, times, diff, sigma):
        self.times = np.asarray(times, dtype=np.float64)
        self.diff = np.asarray(diff, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        n = self.times.shape[0]
        if self.diff.shape != (n,) or self.sigma.shape != (n,):
            raise ValueError("beat series arrays must have matching lengths")
        # NaN passes the range checks below, and would surface only in the fit
        if not all(np.isfinite(a).all() for a in (self.times, self.diff, self.sigma)):
            raise ValueError("beat series times, differences and sigmas must be finite")
        if np.any(np.abs(self.diff) > 1.0 + 1e-12):
            raise ValueError("beat differences must lie in [-1, 1]")
        if np.any(self.sigma < 0):
            raise ValueError("per-point sigma must be nonnegative")

    def __len__(self) -> int:
        return self.times.shape[0]


def _binomial_variance(count_pos: np.ndarray, batch: np.ndarray) -> np.ndarray:
    # Shrunk proportion keeps the variance strictly positive at p_hat in {0, 1}
    # without visibly biasing the weights at realistic batch sizes.
    p_shrunk = (count_pos + 0.5) / (batch + 1.0)
    return p_shrunk * (1.0 - p_shrunk) / batch


def _profile(gram: np.ndarray, moment: np.ndarray, yy: float, psi):
    """chi2 and coefficients (P, Q) of the envelope's linear subproblem at
    each fast phase in psi (an array, or one float).

    Column k of the design at fast phase p is env_k * sin(wft + p), with env =
    (ce, se). Since sin(wft + p) = sin(wft) cos p + cos(wft) sin p, its normal
    matrix A(p) and right side b(p) are quadratic and linear forms in
    (cos p, sin p) over the Gram matrix and moment vector of the weighted
    basis (_envelope_basis), and yy is the weighted data's own square. With
    the closed-form 2x2 inverse, (P, Q) = A^-1 b and chi2 = yy - b^T A^-1 b.
    A point whose A fails numpy's matrix_rank test gets chi2 inf, so no NaN
    reaches an argmin; its (P, Q) mean nothing.
    """
    c, s = np.cos(psi), np.sin(psi)

    def form(block):  # (c, s) block (c, s)^T at every psi
        return (block[0, 0] * c * c + (block[0, 1] + block[1, 0]) * c * s
                + block[1, 1] * s * s)

    a11, a12, a22 = form(gram[:2, :2]), form(gram[:2, 2:]), form(gram[2:, 2:])
    b1 = c * moment[0] + s * moment[1]
    b2 = c * moment[2] + s * moment[3]
    normal = np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)
    full_rank = np.linalg.matrix_rank(normal, tol=None) == 2
    det = a11 * a22 - a12 * a12
    with np.errstate(divide="ignore", invalid="ignore"):  # det is 0 where rank < 2
        explained = (a22 * b1 * b1 - 2.0 * a12 * b1 * b2 + a11 * b2 * b2) / det
        p_coef = (a22 * b1 - a12 * b2) / det
        q_coef = (a11 * b2 - a12 * b1) / det
    return np.where(full_rank, yy - explained, math.inf), p_coef, q_coef


def _stationary_phases(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """The fast phases in [0, pi) where _profile's chi2 may be least: its
    stationary points, and pi/2.

    With x = tan p, _profile's A(p) and b(p) over cos p are quadratic and
    linear in x, so its explained part b^T A^-1 b is num(x)/det(x), with
    det = a11 a22 - a12^2 and num = a22 b1^2 - 2 a12 b1 b2 + a11 b2^2 both
    quartics. The stationary points are the real roots of the Wronskian
    num' det - num det', whose x^7 terms cancel exactly: a sextic. Every
    root's real part is a candidate, so roots that rounding pushed off the
    real axis count too, and pi/2 stands for x = inf.
    """
    def form(block):  # (1, x) block (1, x)^T, highest power first
        return np.array([block[1, 1], block[0, 1] + block[1, 0], block[0, 0]])

    a11, a12, a22 = form(gram[:2, :2]), form(gram[:2, 2:]), form(gram[2:, 2:])
    b1, b2 = moment[[1, 0]], moment[[3, 2]]
    mul = np.convolve  # polynomial product, highest power first
    det = mul(a11, a22) - mul(a12, a12)
    num = mul(a22, mul(b1, b1)) - 2.0 * mul(a12, mul(b1, b2)) + mul(a11, mul(b2, b2))
    wronskian = mul(np.polyder(num), det) - mul(num, np.polyder(det))
    x = np.roots(wronskian[1:])  # the x^7 terms (4 n4) d4 and n4 (4 d4) have equal bits
    return np.append(np.arctan(x.real) % math.pi, math.pi / 2.0)


def _n_distinct(times: np.ndarray) -> np.ndarray:
    """Distinct values along the last axis of times, as np.unique counts
    them: equal floats once, -0.0 with 0.0, and every NaN as one value."""
    s = np.sort(times, axis=-1)
    # sorting puts NaNs last, so a NaN on the left of a pair has one on its right
    new = (s[..., 1:] != s[..., :-1]) & ~np.isnan(s[..., :-1])
    return np.count_nonzero(new, axis=-1) + (s.shape[-1] > 0)


def check_phase_grid(times) -> None:
    """Raise RankDeficientError (param 'n_points') unless estimate_phase has
    the 3 distinct sample times it needs."""
    if _n_distinct(np.asarray(times, dtype=np.float64)) < 3:
        raise _few_times()


def _few_times() -> RankDeficientError:
    return blame(RankDeficientError("phase fit needs at least 3 distinct sample times"),
                 "n_points")


def fit_phases(series: Sequence[PopulationSeries],
               omegas: Sequence[float]) -> list[PhaseEstimate | EstimationError]:
    """Fit each series[i] at frequency omegas[i] as estimate_phase does, and
    return per series its PhaseEstimate, or the EstimationError that
    estimate_phase raises for it.

    Series of one length share one stack (_fit_stack): one matrix_rank, one
    solve and one inv call over (k, 3, 3) normal matrices. Each of numpy's
    stacked calls runs the 2-D call's BLAS or LAPACK routine per matrix, so
    every result has the bits of a fit of its series alone.
    """
    results: list = [None] * len(series)
    stacks: dict[int, list[int]] = {}
    for i, one in enumerate(series):
        stacks.setdefault(len(one), []).append(i)
    for index in stacks.values():
        fits = _fit_stack([series[i] for i in index], [omegas[i] for i in index])
        for i, fit in zip(index, fits):
            results[i] = fit
    return results


def _fit_stack(stack: list[PopulationSeries],
               omegas: list[float]) -> list[PhaseEstimate | EstimationError]:
    """fit_phases for k series of one length n: p_hat(t) = a cos(w t) +
    b sin(w t) + c by weighted linear least squares, with (k, n, 3) designs.
    A series that fails a check leaves the stack, so the later steps see
    only the series that are still fit."""
    results: list = [None] * len(stack)
    t = np.stack([one.times for one in stack])
    count_pos = np.stack([one.count_pos for one in stack])
    batch = np.stack([one.batch_size for one in stack])
    empty = np.any(batch <= 0, axis=1)
    few = ~empty & (_n_distinct(t) < 3)
    for i in np.flatnonzero(empty):
        results[i] = EstimationError("series contains empty batches")
    for i in np.flatnonzero(few):
        results[i] = _few_times()
    rows = np.flatnonzero(~(empty | few))
    t, count_pos, batch = t[rows], count_pos[rows], batch[rows]

    sw = np.sqrt(1.0 / _binomial_variance(count_pos, batch))
    wt = np.array(omegas, dtype=np.float64)[rows, None] * t
    xw = np.stack([np.cos(wt), np.sin(wt), np.ones_like(t)], axis=-1) * sw[..., None]
    yw = count_pos / batch * sw
    xtx = xw.transpose(0, 2, 1) @ xw
    full = np.linalg.matrix_rank(xtx, tol=None) == 3
    for i in rows[~full]:
        results[i] = RankDeficientError("design matrix is rank deficient")
    rows, xw, yw, xtx = rows[full], xw[full], yw[full], xtx[full]

    beta = np.linalg.solve(xtx, xw.transpose(0, 2, 1) @ yw[..., None])
    resid = yw - (xw @ beta)[..., 0]
    chi2 = (resid[:, None, :] @ resid[..., None])[:, 0, 0]
    a, b = beta[:, 0, 0], beta[:, 1, 0]
    r2 = a * a + b * b
    zero = r2 <= 0.0  # not NaN: a NaN amplitude is fitted, as one series alone is
    for i in rows[zero]:
        results[i] = EstimationError("oscillation amplitude is zero; phase undefined")
    keep = ~zero
    rows, chi2, a, b, r2 = rows[keep], chi2[keep], a[keep], b[keep], r2[keep]
    # delta method on phase = atan2(-b, a)
    grad = np.stack([b / r2, -a / r2, np.zeros_like(a)], axis=-1)
    cov = np.linalg.inv(xtx[keep])
    var = (grad[:, None, :] @ cov @ grad[..., None])[:, 0, 0]
    n = t.shape[1]
    for i, ai, bi, vi, ci in zip(rows, a.tolist(), b.tolist(), var.tolist(), chi2.tolist()):
        # math.atan2, not np.arctan2: numpy's own loop may differ in the last bit
        results[i] = PhaseEstimate(phase=normalize_phase(math.atan2(-bi, ai)),
                                   sigma=math.sqrt(max(vi, 0.0)), n_samples_used=n,
                                   residual=ci)
    return results


def estimate_phase(series: PopulationSeries, species: ClockSpecies) -> PhaseEstimate:
    """Fit p_hat(t) = (1 + cos(w t + phase))/2 by weighted linear least squares:
    fit_phases for one series, raising its EstimationError.

    The constant term is fitted rather than pinned at 1/2; a fitted constant
    far from 1/2 inflates the reported residual and flags sampling bugs.
    """
    (fit,) = fit_phases([series], [species.omega])
    if isinstance(fit, EstimationError):
        raise fit
    return fit


def beat_difference(series1: PopulationSeries, series2: PopulationSeries) -> BeatSeries:
    """Pointwise p_hat_1 - p_hat_2 on a shared time grid, with propagated sigma."""
    if not np.array_equal(series1.times, series2.times):
        raise EstimationError("beat difference requires identical time grids")
    diff = series1.p_hat() - series2.p_hat()
    var = (_binomial_variance(series1.count_pos, series1.batch_size)
           + _binomial_variance(series2.count_pos, series2.batch_size))
    return BeatSeries(series1.times, diff, np.sqrt(var))


def _beat_weights(beats: BeatSeries) -> np.ndarray:
    if np.all(beats.sigma == 0.0):
        return np.ones_like(beats.sigma)
    floor = float(np.max(beats.sigma)) * 1e-9
    return 1.0 / np.maximum(beats.sigma, floor) ** 2


def _envelope_basis(beats: BeatSeries, omega1: float, omega2: float):
    """The weighted basis sqrt(w) [ce sf, ce cf, se sf, se cf] of an envelope
    fit, as an (n, 4) array, and the weighted data sqrt(w) y; ce, se are the
    cos, sin of the envelope argument w_e t and cf, sf those of the fast
    argument w_f t."""
    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t = beats.times
    ce, se = np.cos(w_e * t), np.sin(w_e * t)
    sf, cf = np.sin(w_f * t), np.cos(w_f * t)
    sw = np.sqrt(_beat_weights(beats))
    return np.column_stack([ce * sf, ce * cf, se * sf, se * cf]) * sw[:, None], beats.diff * sw


def check_envelope_grid(times, omega1: float, omega2: float) -> None:
    """Raise EstimationError unless envelope_phase can fit beats sampled at
    these ascending times: 5 points at least (the error's param is then
    'n_points'), and every gap shorter than pi/(omega1 + omega2), half a
    period of the fast factor."""
    if len(times) < 5:
        raise blame(EstimationError("an envelope fit needs 5 points at least"), "n_points")
    max_gap = float(np.max(np.diff(times)))
    limit = math.pi / (omega1 + omega2)
    if max_gap >= limit:
        raise EstimationError(f"grid spacing {max_gap:.4g} s does not resolve the fast "
                              f"oscillation (each gap < pi/(omega1 + omega2) = {limit:.4g} s)")


def envelope_phase(beats: BeatSeries, omega1: float, omega2: float) -> PhaseEstimate:
    """Phase of the slow beat envelope, canonicalized into [0, pi).

    Model: diff(t) = E sin(w_e t + psi_env) sin(w_f t + psi_fast) with
    w_e = |omega1 - omega2|/2 and w_f = (omega1 + omega2)/2. For fixed
    psi_fast the model is linear in (P, Q) = (E sin psi_env, E cos psi_env).
    One pass over the data builds the 4x4 Gram matrix and moment vector of
    the weighted basis (_envelope_basis); everything else is closed form in
    them (_profile). psi_fast is the candidate of least chi2 among the
    profile's stationary points, the real roots of one sextic in
    tan(psi_fast), and pi/2 (_stationary_phases); (P, Q) are the
    subproblem's solution there. The Jacobian of the model in
    (P, Q, psi_fast) is the basis times a 4x3 matrix M, so its normal matrix
    is M^T Gram M. The residual is taken directly, from one product of the
    basis with the coefficients.
    The (psi_env, psi_fast) -> (psi_env + pi, psi_fast + pi) ambiguity is
    resolved on psi_env alone, which keeps the returned phase independent of
    any basis-phase offset hiding in psi_fast.
    """
    if omega1 == omega2:
        raise EstimationError("envelope extraction needs two distinct frequencies")
    check_envelope_grid(beats.times, omega1, omega2)
    basis, yw = _envelope_basis(beats, omega1, omega2)
    gram, moment, yy = basis.T @ basis, basis.T @ yw, float(yw @ yw)

    psi = _stationary_phases(gram, moment)
    chi2, p_coef, q_coef = _profile(gram, moment, yy, psi)
    k = int(np.argmin(chi2))
    psi_fast, chi2_min, p_coef, q_coef = (float(v[k]) for v in (psi, chi2, p_coef, q_coef))
    if chi2_min == math.inf:
        raise RankDeficientError("design matrix is rank deficient")
    amp = math.hypot(p_coef, q_coef)  # P, Q = E sin(psi_env), E cos(psi_env)
    if amp == 0.0:
        raise EstimationError("envelope amplitude is zero; phase undefined")
    noise_floor = float(np.median(beats.sigma))
    if noise_floor > 0.0 and amp < 3.0 * noise_floor:
        raise InconclusiveError(
            f"envelope amplitude {amp:.3g} below noise floor 3 x {noise_floor:.3g}"
        )

    # full covariance over (P, Q, psi_fast) at the optimum: Jacobian = basis @ m
    c, s = math.cos(psi_fast), math.sin(psi_fast)
    m = np.array([[c, 0.0, -p_coef * s], [s, 0.0, p_coef * c],
                  [0.0, c, -q_coef * s], [0.0, s, q_coef * c]])
    jtj = m.T @ gram @ m
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    grad = np.array([q_coef / amp**2, -p_coef / amp**2, 0.0])
    var = float(grad @ cov @ grad)
    resid = yw - basis @ (m[:, :2] @ [p_coef, q_coef])  # model = basis @ (Pc, Ps, Qc, Qs)

    psi_env = math.atan2(p_coef, q_coef)  # envelope E sin(w_e t + psi_env)
    psi_env = normalize_phase(psi_env)
    if psi_env >= math.pi:  # fold the sign ambiguity using psi_env only
        psi_env -= math.pi
    return PhaseEstimate(
        phase=psi_env,
        sigma=math.sqrt(max(var, 0.0)),
        n_samples_used=len(beats),
        residual=float(resid @ resid),
    )


def first_envelope_maximum(beats: BeatSeries, omega1: float, omega2: float) -> tuple[float, float]:
    """Time of the first maximum of the fitted envelope magnitude, with sigma.

    For envelope E sin(w_e t + psi_env) the first magnitude maximum after the
    collapse epoch sits where the argument reaches pi/2 (mod pi); noiseless
    beats give exactly t = pi / |omega1 - omega2|.
    """
    est = envelope_phase(beats, omega1, omega2)
    w_e = abs(omega1 - omega2) / 2.0
    # wrap psi_env into (-pi/2, pi/2] so the maximum lands in (0, pi/w_e]
    psi = est.phase if est.phase <= math.pi / 2.0 else est.phase - math.pi
    t_max = (math.pi / 2.0 - psi) / w_e
    sigma = est.sigma / w_e
    t_lo, t_hi = float(beats.times[0]), float(beats.times[-1])
    if not (t_lo <= t_max <= t_hi):
        raise InconclusiveError(
            f"first envelope maximum {t_max:.6g} s lies outside the sampled "
            f"window [{t_lo:.6g}, {t_hi:.6g}] s"
        )
    return t_max, sigma
