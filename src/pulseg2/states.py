"""Photon-number statistics of single-mode light.

Every quantity computed by this package depends on the quantum state only
through its photon-number distribution P_n, so a state is stored as a
finite probability vector together with the recipe that produced it.
Phase information (off-diagonal density-matrix elements) plays no role in
intensity correlations and is not represented.

The key state-identifying number is the second-order coherence

    g2q = sum_n n(n-1) P_n / (sum_n n P_n)^2

which is 1 for Poissonian (coherent) light, 2 for thermal light, and
1 - 1/n for an n-photon Fock state.  It is invariant under independent
photon loss, which is why detector efficiency never biases it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .streams import _read_table

__all__ = [
    "QuantumState",
    "coherent",
    "thermal",
    "fock",
    "mixture",
    "from_pn",
    "mean_photon_number",
    "second_factorial_moment",
    "g2q_from_moments",
    "g2q_from_pn",
    "binomial_loss_pn",
    "parse_state_spec",
]

# Parametric distributions are truncated where the discarded tail mass,
# weighted by n^2, drops below this budget.  The weighting keeps the first
# and second factorial moments of the stored vector within ~1e-12 relative
# of their untruncated values, not just the total probability.
_TAIL_BUDGET = 1e-13

_NORM_TOL = 1e-12

# Largest photon number a stored distribution may reach (thermal:1000 needs
# 51,705 entries, coherent:1e5 103,173); larger states fail before allocating.
_MAX_PHOTONS = 2**20


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A single-mode state reduced to its photon-number distribution.

    Attributes
    ----------
    kind:
        One of "coherent", "thermal", "fock", "mixture", "custom".
    pn:
        Probability of finding n photons, n = 0 .. pn.size - 1.
        Normalized to unit sum, entries nonnegative, read-only.
    label:
        Canonical spec string, see `parse_state_spec`.
    renormalized:
        True when the input vector arrived unnormalized and was rescaled.
    """

    kind: str
    pn: np.ndarray
    label: str
    renormalized: bool = False

    def __post_init__(self):
        pn = np.array(self.pn, dtype=float)
        if pn.ndim != 1 or pn.size == 0:
            raise ValueError("pn must be a nonempty 1-D vector")
        if not np.all(np.isfinite(pn)) or np.any(pn < 0):
            raise ValueError("pn entries must be finite and nonnegative")
        if abs(pn.sum() - 1.0) > _NORM_TOL:
            raise ValueError("pn must sum to one")
        pn.setflags(write=False)
        object.__setattr__(self, "pn", pn)

    def __repr__(self):  # labels are canonical and short
        return f"QuantumState({self.label!r})"


def _bounded(n):
    """``n``, or a ValueError when photon numbers up to ``n`` pass the bound."""
    if n > _MAX_PHOTONS:
        raise ValueError(f"photon numbers up to {n:g} exceed the bound {_MAX_PHOTONS}")
    return n


def _truncate(pn_full: np.ndarray) -> np.ndarray:
    """Shortest head of ``pn_full`` whose weighted tail is negligible."""
    n = np.arange(pn_full.size, dtype=float)
    w = (n * n + 1.0) * pn_full
    suffix = np.cumsum(w[::-1])[::-1]          # suffix[k] = sum_{i>=k} w_i
    tail_after = np.append(suffix[1:], 0.0)    # mass strictly beyond index k
    keep = int(np.argmax(tail_after < _TAIL_BUDGET)) + 1
    out = pn_full[:keep].copy()
    return out / out.sum()


def coherent(mean_n: float, label: str | None = None) -> QuantumState:
    """Coherent light: Poissonian photon-number distribution of mean ``mean_n``."""
    mean_n = float(mean_n)
    if not math.isfinite(mean_n) or mean_n < 0:
        raise ValueError("mean photon number must be finite and >= 0")
    if mean_n == 0.0:
        pn = np.array([1.0])
    else:
        hi = int(math.ceil(mean_n + 12.0 * math.sqrt(mean_n + 1.0) + 30.0))
        while True:
            # Poisson pmf from its logarithm, so no factor overflows
            n = np.arange(_bounded(hi) + 1, dtype=float)
            log_n_factorial = np.array([math.lgamma(k + 1.0) for k in n])
            pn_full = np.exp(n * math.log(mean_n) - log_n_factorial - mean_n)
            if (hi * hi + 1.0) * pn_full[-1] * hi < _TAIL_BUDGET * 1e-2:
                break
            hi *= 2
        pn = _truncate(pn_full)
    return QuantumState("coherent", pn, label or f"coherent:{mean_n:g}")


def thermal(mean_n: float, label: str | None = None) -> QuantumState:
    """Thermal (chaotic) light: geometric distribution P_n = nbar^n/(1+nbar)^(n+1)."""
    mean_n = float(mean_n)
    if not math.isfinite(mean_n) or mean_n < 0:
        raise ValueError("mean photon number must be finite and >= 0")
    if mean_n == 0.0:
        pn = np.array([1.0])
    else:
        q = _bounded(mean_n) / (1.0 + mean_n)      # bounded, so q < 1
        hi = 64
        while (hi * hi + 1.0) * q**hi / (1.0 - q) >= _TAIL_BUDGET * 1e-2:
            hi *= 2
        n = np.arange(_bounded(hi) + 1, dtype=float)
        pn = _truncate((1.0 - q) * q**n)
    return QuantumState("thermal", pn, label or f"thermal:{mean_n:g}")


def fock(n: int, label: str | None = None) -> QuantumState:
    """Definite photon number state |n>."""
    if n != int(n) or n < 0:
        raise ValueError("Fock index must be a nonnegative integer")
    n = int(n)
    pn = np.zeros(_bounded(n) + 1)
    pn[n] = 1.0
    return QuantumState("fock", pn, label or f"fock:{n}")


def mixture(weights, components, label: str | None = None) -> QuantumState:
    """Statistical mixture: P_n is the weight-convex combination of the components."""
    w = np.asarray(weights, dtype=float).ravel()
    components = list(components)
    if w.size != len(components) or w.size == 0:
        raise ValueError("need one weight per component state")
    if np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    w = w / w.sum()
    size = max(c.pn.size for c in components)
    pn = np.zeros(size)
    for wi, comp in zip(w, components):
        pn[: comp.pn.size] += wi * comp.pn
    pn /= pn.sum()
    if label is None:
        label = "mix:" + "+".join(f"{wi:g}*{c.label}" for wi, c in zip(w, components))
    return QuantumState("mixture", pn, label)


def from_pn(values, label: str | None = None) -> QuantumState:
    """State from a raw photon-number vector.

    Unnormalized input (e.g. a measured count histogram) is accepted and
    rescaled; the resulting state carries ``renormalized=True`` so callers
    can tell the vector was not a probability distribution as given.
    """
    p = np.asarray(values, dtype=float).ravel()
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise ValueError("pn vector must be nonempty and finite")
    if np.any(p < -1e-12 * max(p.max(initial=0.0), 1.0)):
        raise ValueError("pn vector has negative entries")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("pn vector has no probability mass")
    renorm = abs(total - 1.0) > 1e-12
    p = p / total
    last = int(np.nonzero(p)[0][-1])
    p = p[: last + 1]
    p = p / p.sum()
    return QuantumState("custom", p, label or "pn:custom", renormalized=renorm)


def mean_photon_number(state: QuantumState) -> float:
    """First moment sum_n n P_n (the mean detected rate per pulse before loss)."""
    n = np.arange(state.pn.size, dtype=float)
    return float(n @ state.pn)


def second_factorial_moment(state: QuantumState) -> float:
    """Pair moment sum_n n(n-1) P_n, the expected number of ordered photon pairs."""
    n = np.arange(state.pn.size, dtype=float)
    return float((n * (n - 1.0)) @ state.pn)


def g2q_from_moments(state: QuantumState) -> float:
    """State second-order coherence, pair moment over squared mean."""
    return g2q_from_pn(state.pn)


def g2q_from_pn(p) -> float:
    """Second-order coherence straight from a photon-number distribution.

    The vector must already be normalized (to within 1e-9): the ratio is
    not scale invariant, so a raw count histogram has to be divided by the
    number of trials first.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("distribution must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must be normalized to within 1e-9")
    n = np.arange(p.size, dtype=float)
    nbar = float(n @ p)
    if nbar <= 0.0:
        raise ValueError("g2 undefined for vacuum")
    return float((n * (n - 1.0)) @ p) / nbar**2


def binomial_loss_pn(p, survival: float) -> np.ndarray:
    """Distribution after each photon independently survives with probability ``survival``.

    Sums P_k times the Binomial(k, s) pmf B_k over k, s = ``survival``.
    B_k is stepped by Pascal's rule, B_{k+1}(m) = (1 - s) B_k(m) +
    s B_k(m - 1), a convex combination, so no product like
    C(k, m) (1 - s)^(k - m) is formed whose factors over- and underflow.
    Only the window of B_k above 1e-300 is kept, so memory is O(size).
    """
    if not 0.0 <= survival <= 1.0:
        raise ValueError("survival probability must lie in [0, 1]")
    p = np.asarray(p, dtype=float).ravel()
    out = np.zeros(p.size)
    pmf, lo = np.ones(1), 0          # Binomial(k, survival) on lo .. lo + pmf.size - 1
    for pk in p:
        if pk:
            out[lo:lo + pmf.size] += pk * pmf
        step = np.zeros(pmf.size + 1)
        step[:-1] = pmf * (1.0 - survival)
        step[1:] += pmf * survival
        keep = np.flatnonzero(step > 1e-300)
        lo += keep[0]
        pmf = step[keep[0]:keep[-1] + 1]
    return out / out.sum()


def _load_pn_csv(path: str) -> np.ndarray:
    rows = _read_table(path, "n,P_n")
    ns = rows[:, 0]
    if np.any(ns < 0) or np.any(ns != np.round(ns)):
        raise ValueError(f"{path}: photon numbers must be nonnegative integers")
    vec = np.zeros(int(_bounded(ns.max(initial=0))) + 1)
    vec[ns.astype(int)] = rows[:, 1]
    return vec


def parse_state_spec(spec: str) -> QuantumState:
    """Parse a state spec string.

    Grammar: ``coherent:<mean_n>``, ``thermal:<mean_n>``, ``fock:<n>``,
    ``mix:<w1>*<spec1>+<w2>*<spec2>+...`` and ``pn:<path to CSV of n,P_n>``.
    """
    text = spec.strip()
    head, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad state spec {spec!r}")
    head = head.lower()
    try:
        if head == "coherent":
            return coherent(float(rest), label=text)
        if head == "thermal":
            return thermal(float(rest), label=text)
        if head == "fock":
            return fock(int(rest), label=text)
        if head == "pn":
            return from_pn(_load_pn_csv(rest), label=text)
        if head == "mix":
            weights, comps = [], []
            # a '+' right after a mantissa's e/E is an exponent sign
            for term in re.split(r"(?<![0-9.][eE])\+", rest):
                wtxt, sep2, sub = term.partition("*")
                if not sep2:
                    raise ValueError(f"mixture term {term!r} needs <weight>*<spec>")
                if sub.strip().lower().startswith("mix:"):
                    raise ValueError("nested mix: specs are not supported")
                weights.append(float(wtxt))
                comps.append(parse_state_spec(sub))
            return mixture(weights, comps, label=text)
    except ValueError as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown state kind {head!r} in {spec!r}")
