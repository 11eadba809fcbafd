"""Phase and beat-envelope recovery from finite measurement counts.

The clock frequencies are exactly known constants (they define the species),
so only phases are fitted. The single-tone fit is a weighted linear least
squares in the (a, b, c) parametrization p(t) = a cos(w t) + b sin(w t) + c,
which is convex and has no initialization sensitivity. The beat-envelope fit
profiles the single nonlinear fast-phase parameter over a grid and polishes
it with an in-tree bounded Brent minimization (_bounded_brent); for each
candidate fast phase the envelope parameters are an exact linear subproblem.
The grid's chi2 values come in one closed-form array pass (_profile_chi2):
expanding the fast factor in cos/sin of the fast phase turns every grid
point's 2x2 normal equations into quadratic forms over one 4x4 Gram matrix.
The polish and the final fit solve the subproblem directly (_whitened_lstsq).
"""

from __future__ import annotations

import math
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


def _weighted_lstsq(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Solve min_b sum w (y - X b)^2; returns (beta, covariance, chi2)."""
    sw = np.sqrt(w)
    beta, xtx, chi2 = _whitened_lstsq(x * sw[:, None], y * sw)
    return beta, np.linalg.inv(xtx), chi2


def _whitened_lstsq(xw: np.ndarray, yw: np.ndarray):
    """Solve min_b |yw - xw b|^2, for a design and data already scaled by the
    square roots of the weights; returns (beta, normal matrix, chi2)."""
    xtx = xw.T @ xw
    if np.linalg.matrix_rank(xtx, tol=None) < xw.shape[1]:
        raise RankDeficientError("design matrix is rank deficient")
    beta = np.linalg.solve(xtx, xw.T @ yw)
    resid = yw - xw @ beta
    return beta, xtx, float(resid @ resid)


def _profile_chi2(ce: np.ndarray, se: np.ndarray, wft: np.ndarray, y: np.ndarray,
                  w: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """chi2 of the envelope's linear subproblem at each fast phase in psi.

    Column k of the design at fast phase p is env_k * sin(wft + p), with env =
    (ce, se). Since sin(wft + p) = sin(wft) cos p + cos(wft) sin p, its normal
    matrix A(p) and right side b(p) are quadratic and linear forms in
    (cos p, sin p) over the Gram matrix and moment vector of the weighted
    basis [ce sf, ce cf, se sf, se cf]: O(n) work, then O(len(psi)). chi2 is
    yw.yw - b^T A^-1 b with the closed-form 2x2 inverse. A point that fails
    _whitened_lstsq's rank rule gets inf, so no NaN reaches an argmin.
    """
    sw = np.sqrt(w)
    sf, cf = np.sin(wft), np.cos(wft)
    basis = np.column_stack([ce * sf, ce * cf, se * sf, se * cf]) * sw[:, None]
    yw = y * sw
    gram = basis.T @ basis
    moment = basis.T @ yw
    c, s = np.cos(psi), np.sin(psi)

    def form(block):  # (c, s) block (c, s)^T for every grid point
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
    return np.where(full_rank, yw @ yw - explained, math.inf)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_brent(f, a: float, b: float, xatol: float) -> float:
    """Minimizer of f on [a, b] by Brent's bounded method: golden-section
    steps, with parabolic steps through the three best points where those
    are safe. It takes the steps of scipy's minimize_scalar(method="bounded")
    one for one (scipy.optimize._optimize._minimize_scalar_bounded), so it
    evaluates f at the same points and returns the same bits; at most 500
    evaluations of f.
    """
    a, b = float(a), float(b)
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:  # too close to a bound
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def check_phase_grid(times) -> None:
    """Raise RankDeficientError (param 'n_points') unless estimate_phase has
    the 3 distinct sample times it needs."""
    if np.unique(times).shape[0] < 3:
        raise blame(RankDeficientError("phase fit needs at least 3 distinct sample times"),
                    "n_points")


def estimate_phase(series: PopulationSeries, species: ClockSpecies) -> PhaseEstimate:
    """Fit p_hat(t) = (1 + cos(w t + phase))/2 by weighted linear least squares.

    The constant term is fitted rather than pinned at 1/2; a fitted constant
    far from 1/2 inflates the reported residual and flags sampling bugs.
    """
    if np.any(series.batch_size <= 0):
        raise EstimationError("series contains empty batches")
    check_phase_grid(series.times)
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
    psi_fast the model is linear in (E sin psi_env, E cos psi_env), so
    psi_fast is profiled over a 96-point grid on [0, pi), all of whose chi2
    values come from one closed-form array pass (_profile_chi2); a bounded
    Brent minimization (_bounded_brent) then refines it between the best
    point's neighbours, solving the subproblem directly: its objective
    takes the weighted data and the fast argument w_f t, computed once, and
    computes no covariance, which the chi2 does not need. psi_env comes from
    the linear subproblem at the optimum. The (psi_env, psi_fast) ->
    (psi_env + pi, psi_fast + pi) ambiguity is resolved on psi_env alone,
    which keeps the returned phase independent of any basis-phase offset
    hiding in psi_fast.
    """
    if omega1 == omega2:
        raise EstimationError("envelope extraction needs two distinct frequencies")
    check_envelope_grid(beats.times, omega1, omega2)
    w_e = abs(omega1 - omega2) / 2.0
    w_f = (omega1 + omega2) / 2.0
    t = beats.times
    w = _beat_weights(beats)
    ce, se = np.cos(w_e * t), np.sin(w_e * t)
    wft = w_f * t
    sw = np.sqrt(w)
    yw = beats.diff * sw

    def linear_fit(psi_fast: float):
        s = np.sin(wft + psi_fast)
        return _whitened_lstsq(np.column_stack([ce * s, se * s]) * sw[:, None], yw)

    def chi2(psi_fast: float) -> float:
        try:
            return linear_fit(psi_fast)[2]
        except RankDeficientError:
            return math.inf

    grid = np.linspace(0.0, math.pi, 97)[:-1]
    k = int(np.argmin(_profile_chi2(ce, se, wft, beats.diff, w, grid)))
    step = grid[1] - grid[0]
    psi_fast = _bounded_brent(chi2, grid[k] - step, grid[k] + step, xatol=1e-12)
    beta, _xtx, chi2_min = linear_fit(psi_fast)
    p_coef, q_coef = beta  # E sin(psi_env), E cos(psi_env)
    amp = math.hypot(p_coef, q_coef)
    if amp == 0.0:
        raise EstimationError("envelope amplitude is zero; phase undefined")
    noise_floor = float(np.median(beats.sigma))
    if noise_floor > 0.0 and amp < 3.0 * noise_floor:
        raise InconclusiveError(
            f"envelope amplitude {amp:.3g} below noise floor 3 x {noise_floor:.3g}"
        )

    # full covariance over (P, Q, psi_fast) at the optimum
    s = np.sin(wft + psi_fast)
    cfast = np.cos(wft + psi_fast)
    j = np.column_stack([ce * s, se * s, (p_coef * ce + q_coef * se) * cfast])
    jtj = (j * sw[:, None]).T @ (j * sw[:, None])
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    grad = np.array([q_coef / amp**2, -p_coef / amp**2, 0.0])
    var = float(grad @ cov @ grad)

    psi_env = math.atan2(p_coef, q_coef)  # envelope E sin(w_e t + psi_env)
    psi_env = normalize_phase(psi_env)
    if psi_env >= math.pi:  # fold the sign ambiguity using psi_env only
        psi_env -= math.pi
    return PhaseEstimate(
        phase=psi_env,
        sigma=math.sqrt(max(var, 0.0)),
        n_samples_used=len(beats),
        residual=chi2_min,
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
