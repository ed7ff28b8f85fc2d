"""Temporal mode functions and the pulse-shape overlap factor eta(tau).

A temporal mode v(t) carries the deterministic time dependence of a pulse;
the quantum state lives in the mode operator and knows nothing about time.
Modes are normalized at construction so that the intensity profile
|v(t)|^2 integrates to one.  The central derived quantity is the
normalized intensity autocorrelation

    eta(tau) = int |v(t+tau)|^2 |v(t)|^2 dt / (int |v(t)|^2 dt)^2

with units of inverse time.  eta integrates to one over tau, peaks at
tau = 0 and, for a Gaussian mode of amplitude width dt_p (meaning
v(t) ~ exp(-t^2 / 2 dt_p^2)), has the closed form

    eta(tau) = exp(-tau^2 / 2 dt_p^2) / (sqrt(2 pi) dt_p).

eta(0) is the effective inverse pulse width; shrinking the pulse raises
it, which is exactly the pulse-shape bunching the estimators in
`estimate` have to divide out.

Every parametric mode gets eta exactly from a small Gauss-Hermite rule
(see `eta_numeric`); only sampled modes integrate on their sample grid,
by composite Simpson's rule.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import _read_table

__all__ = [
    "TemporalMode",
    "EtaProfile",
    "gaussian_mode",
    "hermite_gauss_mode",
    "sampled_mode",
    "amplitude",
    "intensity_profile",
    "eta_numeric",
    "eta_gaussian",
    "eta_profile",
    "parse_mode_spec",
]

# Grid of a parametric mode: the rejection envelope of the arrival sampler
# and the tau range of `eta_profile`; no eta is integrated on it.
_POINTS_PER_WIDTH = 400
_REACH_WIDTHS = 8.0
_MAX_HG_ORDER = 30


@dataclass(frozen=True, eq=False)
class TemporalMode:
    """Normalized temporal mode.

    ``width`` is the amplitude width dt_p for parametric kinds; for
    sampled modes it is sqrt(2) times the r.m.s. width of the intensity
    profile, which coincides with dt_p when the samples happen to be
    Gaussian.  ``grid_t``/``grid_v`` are set for sampled modes only.
    """

    kind: str
    width: float
    center: float = 0.0
    order: int = 0
    grid_t: np.ndarray | None = None
    grid_v: np.ndarray | None = None
    label: str = ""

    def __repr__(self):
        return f"TemporalMode({self.label!r})"


def _param_label(prefix: str, width: float, center: float) -> str:
    """``prefix:width[@center]``, each number as short as `%g` where that
    reads back exactly, else with `repr` precision, so the label parses
    back to the same mode."""
    def num(x):
        short = f"{x:g}"
        return short if float(short) == x else repr(float(x))
    return f"{prefix}:{num(width)}" + (f"@{num(center)}" if center else "")


def gaussian_mode(width: float, center: float = 0.0) -> TemporalMode:
    """Gaussian pulse v(t) ~ exp(-(t-center)^2 / 2 width^2)."""
    width = float(width)
    if not math.isfinite(width) or width <= 0:
        raise ValueError("pulse width must be positive")
    return TemporalMode("gaussian", width, float(center),
                        label=_param_label("gauss", width, center))


def hermite_gauss_mode(order: int, width: float, center: float = 0.0) -> TemporalMode:
    """Hermite-Gauss mode: H_order((t-center)/width) under the Gaussian envelope.

    Equal-width modes of different order are mutually orthonormal; order 0
    reproduces `gaussian_mode`.
    """
    if order != int(order) or not 0 <= int(order) <= _MAX_HG_ORDER:
        raise ValueError(f"order must be an integer in [0, {_MAX_HG_ORDER}]")
    base = gaussian_mode(width, center)         # checks the width
    return TemporalMode("hermite_gauss", base.width, base.center, int(order),
                        label=_param_label(f"hg:{int(order)}", base.width, center))


def sampled_mode(t, v, label: str | None = None) -> TemporalMode:
    """Mode from complex samples on a uniform time grid.

    The grid must be uniform and fine enough (spacing below a fiftieth of
    the intensity r.m.s. width); v is treated as zero outside the grid and
    linearly interpolated inside it.
    """
    t = np.asarray(t, dtype=float).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if t.size != v.size or t.size < 9:
        raise ValueError("need matching t and v arrays with at least 9 samples")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("sample times must be strictly increasing")
    h = float(steps.mean())
    if np.max(np.abs(steps - h)) > 1e-6 * h:
        raise ValueError("sample grid must be uniform")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
        raise ValueError("samples must be finite")
    intensity = np.abs(v) ** 2
    norm = _simpson(intensity, dx=h)
    if not norm > 0:
        raise ValueError("mode has zero energy")
    v = v / math.sqrt(norm)
    intensity = intensity / norm
    mean = _simpson(t * intensity, dx=h)
    rms = math.sqrt(max(_simpson((t - mean) ** 2 * intensity, dx=h), 0.0))
    if rms <= 0:
        raise ValueError("degenerate intensity profile")
    if h > rms / 50.0:
        raise ValueError(
            f"sample spacing {h:g} too coarse for r.m.s. width {rms:g}; need <= width/50")
    t = t.copy()
    t.setflags(write=False)
    v.setflags(write=False)         # v / sqrt(norm) above is already a copy
    return TemporalMode("sampled", math.sqrt(2.0) * rms, float(mean),
                        grid_t=t, grid_v=v, label=label or "sampled:<array>")


def amplitude(mode: TemporalMode, t):
    """Mode amplitude v(t), vectorized over t (complex for sampled modes)."""
    arr = np.asarray(t, dtype=float)
    if mode.kind == "sampled":
        flat = arr.ravel()
        re = np.interp(flat, mode.grid_t, mode.grid_v.real, left=0.0, right=0.0)
        im = np.interp(flat, mode.grid_t, mode.grid_v.imag, left=0.0, right=0.0)
        out = (re + 1j * im).reshape(arr.shape)
        return out if arr.ndim else complex(out)
    out = _hg_amplitude(mode, (arr - mode.center) / mode.width)
    return out if arr.ndim else float(out)


def _hermite(order: int, x):
    """Physicists' Hermite polynomial H_order(x) = 2^(order/2) He_order(sqrt(2) x).

    He is summed by its three-term recurrence from the top order down, the
    order scipy.special.eval_hermite uses, so the values agree bit for bit.
    """
    y = math.sqrt(2.0) * np.asarray(x, dtype=float)
    if order == 0:
        return np.ones_like(y)
    lower, upper = np.zeros_like(y), np.ones_like(y)
    for k in range(order, 1, -1):
        lower, upper = upper, y * upper - k * lower
    return (y * upper - lower) * 2.0 ** (order / 2.0)


def _gauss_hermite(m: int):
    """Nodes and weights of the m-point rule for int f(u) exp(-u^2) du.

    Golub & Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the Jacobi matrix of the Hermite recurrence, polished by
    one Newton step on H_m; the weights are 2^(m-1) m! sqrt(pi) / (m H_(m-1))^2.
    """
    off = np.sqrt(np.arange(1, m) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    u -= _hermite(m, u) / (2.0 * m * _hermite(m - 1, u))
    return u, 2.0 ** (m - 1) * math.factorial(m) * math.sqrt(math.pi) \
        / (m * _hermite(m - 1, u)) ** 2


def _hg_amplitude(mode: TemporalMode, x):
    """Amplitude of a parametric mode at x = (t - center) / width."""
    x = np.clip(x, -1e3, 1e3)  # exp(-x^2/2) is already 0 there; H stays finite
    norm = 1.0 / math.sqrt(2.0**mode.order * math.factorial(mode.order)
                           * math.sqrt(math.pi) * mode.width)
    return norm * _hermite(mode.order, x) * np.exp(-0.5 * x * x)


def intensity_profile(mode: TemporalMode, t):
    """|v(t)|^2: nonnegative, unit integral, zero outside a sampled grid."""
    a = amplitude(mode, t)
    out = np.abs(np.asarray(a)) ** 2
    return out if np.ndim(t) else float(out)


def _grid(mode: TemporalMode):
    """Uniform grid covering all the mode's intensity (a sampled mode's own samples)."""
    if mode.kind == "sampled":
        h = float(mode.grid_t[1] - mode.grid_t[0])
        return mode.grid_t, h
    reach = mode.width * (_REACH_WIDTHS + 2.0 * math.sqrt(2.0 * mode.order + 1.0))
    half = int(round(reach / mode.width * _POINTS_PER_WIDTH))
    t = mode.center + np.arange(-half, half + 1) * (mode.width / _POINTS_PER_WIDTH)
    return t, mode.width / _POINTS_PER_WIDTH


def _simpson(y, dx):
    """Composite Simpson's rule along the last axis, as scipy.integrate.simpson.

    Samples are ``dx`` apart: weights dx/3 (1, 4, 2, 4, ..., 4, 1).  An
    even number of samples takes Simpson's rule on all but the last
    interval plus Cartwright's three-point correction for that one.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    w = np.zeros(n)
    if n == 2:
        w[:] = 0.5 * dx
    elif n > 2:
        m = n - 1 if n % 2 else n - 2        # the panels cover intervals [0, m)
        third = 2.0 * dx / 6.0
        w[0:m + 1:2] = 2.0 * third
        w[1:m:2] = 4.0 * third
        w[0] = w[m] = third
        if n % 2 == 0:      # Cartwright's weights at a = b = dx, rounded as for any a, b
            w[-1] += (2.0 * dx * dx + 3.0 * dx * dx) / (6.0 * (dx + dx))
            w[-2] += (dx * dx + 3.0 * dx * dx) / (6.0 * dx)
            w[-3] -= dx**3 / (6.0 * dx * (dx + dx))
    return y @ w


def eta_numeric(mode: TemporalMode, tau):
    """eta(tau) for scalar or array tau.

    Exact for parametric modes: with x = (t - center)/width and
    a = tau/width, |v(t)|^2 |v(t+tau)|^2 of an order-j mode is a polynomial
    of degree 4j in u = sqrt(2)(x + a/2) times exp(-u^2 - a^2/2), so the
    (2j+1)-node Gauss-Hermite rule in u integrates it exactly.  Sampled
    modes integrate on their sample grid by Simpson's rule.
    """
    taus = np.asarray(tau, dtype=float)
    if mode.kind == "sampled":
        t, h = _grid(mode)
        base = intensity_profile(mode, t)
        flat = taus.ravel()
        out = np.empty(flat.size)
        for i in range(0, flat.size, 256):
            shifted = intensity_profile(mode, flat[i:i + 256, None] + t[None, :])
            out[i:i + 256] = _simpson(shifted * base, dx=h)
        out = (out / _simpson(base, dx=h) ** 2).reshape(taus.shape)
    else:
        u, weights = _gauss_hermite(2 * mode.order + 1)
        a = taus[..., None] / mode.width
        x = u / math.sqrt(2.0) - a / 2.0
        # each amplitude carries its own Gaussian factor, so the rule's weight
        # exp(-u^2) is divided back out; every factor stays finite at any tau
        pair = _hg_amplitude(mode, x) * _hg_amplitude(mode, x + a)
        out = (pair * pair) @ (weights * np.exp(u * u)) * (mode.width / math.sqrt(2.0))
    return out if taus.ndim else float(out)


def eta_gaussian(delta_tp: float, tau):
    """Closed-form eta for a Gaussian mode of amplitude width ``delta_tp``."""
    delta_tp = float(delta_tp)
    if not math.isfinite(delta_tp) or delta_tp <= 0:
        raise ValueError("pulse width must be positive")
    arr = np.asarray(tau, dtype=float)
    out = np.exp(-arr**2 / (2.0 * delta_tp**2)) / (math.sqrt(2.0 * math.pi) * delta_tp)
    return out if arr.ndim else float(out)


@dataclass(frozen=True, eq=False)
class EtaProfile:
    """eta sampled on a symmetric tau grid (seconds vs 1/seconds)."""

    tau: np.ndarray
    eta: np.ndarray

    def integral(self) -> float:
        # the grid is a linspace; its mean step, not tau[1] - tau[0]
        dx = (self.tau[-1] - self.tau[0]) / (self.tau.size - 1)
        return float(_simpson(self.eta, dx=dx))


def eta_profile(mode: TemporalMode) -> EtaProfile:
    """Tabulate eta at 4001 points on a symmetric grid wide enough to hold all its mass."""
    t, _ = _grid(mode)
    reach = float(t[-1] - t[0])
    tau = np.linspace(-reach, reach, 4001)
    return EtaProfile(tau, np.asarray(eta_numeric(mode, tau)))


def parse_mode_spec(spec: str) -> TemporalMode:
    """Parse a mode spec string.

    Grammar: ``gauss:<dt_p>[@<t0>]``, ``hg:<j>:<dt_p>[@<t0>]``,
    ``sampled:<path to CSV of t,Re(v),Im(v)>``.
    """
    text = spec.strip()
    head, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad mode spec {spec!r}")
    head = head.lower()
    try:
        if head == "sampled":
            rows = _read_table(rest, "t,Re(v)[,Im(v)]")
            v = rows[:, 1] + 1j * (rows[:, 2] if rows.shape[1] >= 3 else 0.0)
            return sampled_mode(rows[:, 0], v, label=text)
        body, _, t0 = rest.partition("@")
        center = float(t0) if t0 else 0.0
        if head == "gauss":
            return gaussian_mode(float(body), center)
        if head == "hg":
            jtxt, sep2, wtxt = body.partition(":")
            if not sep2:
                raise ValueError("hg spec needs hg:<order>:<width>")
            return hermite_gauss_mode(int(jtxt), float(wtxt), center)
    except ValueError as exc:
        raise ValueError(f"bad mode spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown mode kind {head!r} in {spec!r}")
