"""Schatten and Ky-Fan norms plus generalized singular-value losses.

A "spectrum" here is a 1-D array of non-negative singular values. Norms are
evaluated on spectra, not matrices, so callers decide how the spectrum is
computed (exactly or from a sketch).
"""

from dataclasses import dataclass

import numpy as np


def _check_p(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    return p


def _check_spectrum(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if sigma.size and sigma.min() < 0:
        raise ValueError("singular values must be non-negative")
    return sigma


def schatten_norm(sigma, p: float) -> float:
    """lp norm of a spectrum: ``(sum sigma_i^p)**(1/p)``; p=2 is Frobenius."""
    p = _check_p(p)
    sigma = _check_spectrum(sigma)
    if sigma.size == 0:
        return 0.0
    smax = float(sigma.max())
    if smax == 0.0:
        return 0.0
    # factor out the top value so large p cannot overflow
    return smax * float(np.sum((sigma / smax) ** p)) ** (1.0 / p)


def kyfan_pr_norm(sigma, p: float, r: int) -> float:
    """Singular (p, r)-norm: the lp norm of the top r singular values."""
    p = _check_p(p)
    sigma = _check_spectrum(sigma)
    if not 1 <= r <= sigma.size:
        raise ValueError(f"r={r} out of range 1..{sigma.size}")
    head = np.sort(sigma)[::-1][:r]
    return schatten_norm(head, p)


def cpe_constant(p: float, eps: float) -> float:
    """Constant ``p * (1 + 1/eps)**(p-1)`` of the elementary power inequality.

    For x in [eps, 1] it bounds ``(1+x)^p <= 1 + C x^p`` and
    ``(1-x)^p >= 1 - C x^p``.
    """
    p = _check_p(p)
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return p * (1.0 + 1.0 / eps) ** (p - 1.0)


# ---------------------------------------------------------------------------
# Generalized scalar losses
# ---------------------------------------------------------------------------


class ScalarLoss:
    """Increasing scalar loss with phi(0) = 0, applied to singular values."""

    name = "scalar"

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class HuberLoss(ScalarLoss):
    """Quadratic below ``tau``, linear above: ``x^2/2`` then ``tau(x - tau/2)``."""

    tau: float = 1.0
    name = "huber"

    def __post_init__(self):
        if not self.tau > 0:  # NaN too
            raise ValueError(f"tau must be positive, got {self.tau}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= self.tau, 0.5 * x * x, self.tau * (x - 0.5 * self.tau))

    def describe(self) -> str:
        return f"huber(tau={self.tau:g})"


@dataclass(frozen=True)
class TukeyPLoss(ScalarLoss):
    """``x^p`` capped at ``tau^p``; constant above the threshold."""

    p: float = 2.0
    tau: float = 1.0
    name = "tukey_p"

    def __post_init__(self):
        if not self.p >= 1:  # NaN too
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= self.tau, x**self.p, self.tau**self.p)

    def describe(self) -> str:
        return f"tukey_p(p={self.p:g}, tau={self.tau:g})"


@dataclass(frozen=True)
class L1L2Loss(ScalarLoss):
    """Smooth l1-l2 loss ``2(sqrt(1 + x^2/2) - 1)``: quadratic near 0, linear far out."""

    name = "l1_l2"

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        # algebraically equal to 2(sqrt(1+x^2/2)-1) but immune to the
        # catastrophic cancellation that rounds tiny inputs to exactly 0
        return x * x / (np.sqrt(1.0 + 0.5 * x * x) + 1.0)


def parse_loss(text: str) -> ScalarLoss:
    """Parse a loss id like ``huber:1.5``, ``tukey_p:2:1.0`` or ``l1_l2``."""
    name, *args = text.split(":")
    losses = {"huber": (HuberLoss, 1), "tukey_p": (TukeyPLoss, 2), "l1_l2": (L1L2Loss, 0)}
    if name not in losses:
        raise ValueError(f"unknown loss {name!r}")
    loss, most = losses[name]
    if len(args) > most:
        raise ValueError(f"{name} takes at most {most} parameter(s), got {len(args)}")
    return loss(*(float(v) for v in args))


def phi_objective(sigma, loss: ScalarLoss) -> float:
    """Full objective: sum of the loss over all singular values."""
    sigma = _check_spectrum(sigma)
    return float(np.sum(loss(sigma)))


DEFAULT_CONDITION_GRID = np.logspace(-6.0, 6.0, 241)
# points of the geometric grid of shifts y in [eps*x, x]
_SHIFT_POINTS = 25


@dataclass(frozen=True)
class ConditionReport:
    """Grid estimates of the regularity constants of a scalar loss.

    ``alpha``: multiplicative growth under (1 +/- eps) scaling.
    ``k1``/``k2``: perturbation-over-loss ratios for shifts y in [eps*x, x].
    ``l_eps``: sup of phi(eps*x)/phi(x).
    ``gamma``: sup of phi(x+y)/(phi(x)+phi(y)).
    """

    loss_name: str
    eps: float
    alpha: float
    gamma: float
    k1: float
    k2: float
    l_eps: float

    @property
    def k(self) -> float:
        return max(self.k1, self.k2)

    @property
    def finite(self) -> bool:
        return bool(
            np.all(np.isfinite([self.alpha, self.gamma, self.k1, self.k2, self.l_eps]))
        )

    def violated_conditions(self) -> list[str]:
        out = []
        if not np.isfinite(self.alpha):
            out.append("(a): growth constant alpha diverges on the grid")
        if not (np.isfinite(self.k1) and np.isfinite(self.k2)):
            out.append("(b): perturbation constants K^1/K^2 diverge on the grid")
        if not np.isfinite(self.l_eps):
            out.append("(c): scaling constant L diverges on the grid")
        if not np.isfinite(self.gamma):
            out.append("(d): subadditivity constant gamma diverges on the grid")
        return out


def check_phi_conditions(loss: ScalarLoss, eps: float) -> ConditionReport:
    """Estimate the loss-regularity constants by maximizing over a grid.

    The constants have no closed form for general losses, so the defining
    ratios are maximized over the logarithmic ``DEFAULT_CONDITION_GRID``
    (and a geometric inner grid for the shift variable y).
    """
    eps = float(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    x = DEFAULT_CONDITION_GRID
    fx = loss(x)
    if np.any(fx <= 0):
        raise ValueError("loss must be strictly positive on the grid")

    # infinities are the honest outcome when a ratio diverges on the grid,
    # so divide warnings are suppressed rather than avoided
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = (loss((1.0 + eps) * x) / fx - 1.0) / eps
        lo = (1.0 - loss((1.0 - eps) * x) / fx) / eps
        alpha = float(max(up.max(), lo.max(), 0.0))

        frac = np.geomspace(eps, 1.0, _SHIFT_POINTS)
        y = x[:, None] * frac[None, :]
        fy = loss(y)
        k1 = float(np.max((loss(x[:, None] + y) - fx[:, None]) / fy))
        k2 = float(np.max((fx[:, None] - loss(x[:, None] - y)) / fy))

        l_eps = float((loss(eps * x) / fx).max())

        fsum = fx[:, None] + fx[None, :]
        gamma = float((loss(x[:, None] + x[None, :]) / fsum).max())
    # 0/0 or inf-inf on the grid means the ratio is out of control there;
    # report it as divergent rather than undefined
    alpha, gamma, k1, k2, l_eps = (
        np.inf if np.isnan(v) else v for v in (alpha, gamma, k1, k2, l_eps)
    )

    return ConditionReport(
        loss_name=loss.describe(),
        eps=eps,
        alpha=alpha,
        gamma=gamma,
        k1=k1,
        k2=k2,
        l_eps=l_eps,
    )
