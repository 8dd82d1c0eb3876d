"""Additive distribution properties and their per-symbol evaluators.

A property is a sum over symbols, ``f(p) = sum_x f_x(p_x)``, where every
per-symbol function satisfies ``f_x(0) = 0``.  Distance-like properties are
therefore stored in an offset form (``|p_x - q_x| - q_x``); the constant that
restores the conventional value is carried as ``report_offset`` and added
only when an estimate or exact value is reported.  Arguments above 1, which
arise from count ratios, evaluate as ``f_x(1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KINDS",
    "PropertySpec",
    "entropy",
    "support_size",
    "support_coverage",
    "power_sum",
    "distance_to_uniformity",
    "l1_distance",
    "kl_divergence",
    "eval_fx",
    "eval_fx_grid",
    "eval_fx_many",
    "exact_value",
    "lipschitz",
]

KINDS = (
    "entropy",
    "support_size",
    "support_coverage",
    "power_sum",
    "dist_to_uniform",
    "l1_distance",
    "kl_divergence",
)

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PropertySpec:
    """One additive property with its parameters.

    ``k`` is the support-size normalizer (support_size, dist_to_uniform),
    ``m`` the coverage horizon (support_coverage), ``a`` the power exponent
    (power_sum), and ``q`` the reference distribution (l1_distance,
    kl_divergence).  ``report_offset`` restores the mass subtracted by the
    offset form: +1 for the two absolute-distance properties, 0 otherwise.
    """

    kind: str
    k: int | None = None
    m: float | None = None
    a: float | None = None
    q: np.ndarray | None = None
    report_offset: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown property kind {self.kind!r}")
        if self.kind in ("support_size", "dist_to_uniform"):
            if self.k is None or self.k < 1 or self.k != int(self.k):
                raise ValueError(f"{self.kind} requires a positive integer k")
            object.__setattr__(self, "k", int(self.k))
        if self.kind == "support_coverage":
            if self.m is None or not 0 < self.m < math.inf:
                raise ValueError("support_coverage requires a finite m > 0")
        if self.kind == "power_sum":
            if self.a is None or not 1 < self.a < math.inf:
                raise ValueError("power_sum requires a finite exponent a > 1")
        if self.kind in ("l1_distance", "kl_divergence"):
            if self.q is None:
                raise ValueError(f"{self.kind} requires a reference distribution q")
            q = np.asarray(self.q, dtype=np.float64)
            if q.ndim != 1 or len(q) == 0:
                raise ValueError("q must be a nonempty 1-D probability vector")
            if np.any(q < 0):
                raise ValueError("q must be nonnegative")
            if not abs(float(q.sum()) - 1.0) <= PROB_SUM_TOL:
                raise ValueError(f"q must sum to 1 within {PROB_SUM_TOL}")
            q = q.copy()
            q.flags.writeable = False
            object.__setattr__(self, "q", q)
        if self.kind in ("dist_to_uniform", "l1_distance"):
            object.__setattr__(self, "report_offset", 1.0)

    def reference_mass(self, x: int) -> float:
        """The reference probability ``q_x``; only meaningful for l1/kl."""
        if self.q is None:
            raise ValueError(f"{self.kind} carries no reference distribution")
        return float(self.q[x])


def entropy() -> PropertySpec:
    """Shannon entropy in nats, ``sum_x p_x log(1/p_x)``."""
    return PropertySpec("entropy")


def support_size(k: int) -> PropertySpec:
    """Normalized support size, ``(1/k) * #{x : p_x > 0}``."""
    return PropertySpec("support_size", k=k)


def support_coverage(m: float) -> PropertySpec:
    """Normalized expected distinct count, ``sum_x (1 - e^(-m p_x)) / m``."""
    return PropertySpec("support_coverage", m=m)


def power_sum(a: float) -> PropertySpec:
    """Power sum ``sum_x p_x^a`` for exponent ``a > 1``."""
    return PropertySpec("power_sum", a=a)


def distance_to_uniformity(k: int) -> PropertySpec:
    """L1 distance to the uniform distribution over ``k`` symbols."""
    return PropertySpec("dist_to_uniform", k=k)


def l1_distance(q: np.ndarray) -> PropertySpec:
    """L1 distance to a given reference distribution ``q``."""
    return PropertySpec("l1_distance", q=np.asarray(q, dtype=np.float64))


def kl_divergence(q: np.ndarray) -> PropertySpec:
    """KL divergence from the unknown distribution to reference ``q``."""
    return PropertySpec("kl_divergence", q=np.asarray(q, dtype=np.float64))


def _fx_values(spec: PropertySpec, p: np.ndarray, qx) -> np.ndarray:
    """Offset per-symbol values at probabilities ``p`` (clamped to [0, 1]).

    ``qx`` is a scalar or an array aligned with ``p``; it is only consulted
    for the two reference-distribution kinds.
    """
    p = np.minimum(np.asarray(p, dtype=np.float64), 1.0)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    kind = spec.kind
    if kind == "entropy":
        out = np.zeros_like(p)
        pos = p > 0
        out[pos] = -p[pos] * np.log(p[pos])
        return out
    if kind == "support_size":
        return (p > 0).astype(np.float64) / spec.k
    if kind == "support_coverage":
        return -np.expm1(-spec.m * p) / spec.m
    if kind == "power_sum":
        return p**spec.a
    if kind == "dist_to_uniform":
        inv_k = 1.0 / spec.k
        return np.abs(p - inv_k) - inv_k
    qx = np.asarray(qx, dtype=np.float64)
    if kind == "l1_distance":
        return np.abs(p - qx) - qx
    # kl_divergence
    out = np.zeros_like(p)
    pos = p > 0
    if np.any(pos & (np.broadcast_to(qx, p.shape) == 0)):
        raise ValueError("KL divergence undefined: q_x = 0 with p_x > 0")
    out[pos] = p[pos] * (np.log(p[pos]) - np.log(np.broadcast_to(qx, p.shape)[pos]))
    return out


def eval_fx(spec: PropertySpec, x: int, p: float) -> float:
    """Offset per-symbol value ``f_x(p)``; ``p > 1`` evaluates as ``f_x(1)``."""
    qx = spec.reference_mass(x) if spec.q is not None else 0.0
    return float(_fx_values(spec, np.array([p]), qx)[0])


def eval_fx_grid(spec: PropertySpec, p: np.ndarray, qx: float | None = None) -> np.ndarray:
    """``f_x`` over an array of probabilities for one fixed symbol context."""
    if spec.q is not None and qx is None:
        raise ValueError(f"{spec.kind} needs the symbol's reference mass qx")
    return _fx_values(spec, p, 0.0 if qx is None else qx)


def eval_fx_many(spec: PropertySpec, symbols: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``f_x(p_x)`` over aligned arrays of symbol indices and probabilities.

    For l1/kl the symbols index ``q`` and must lie in ``0..len(q)-1``, or
    are given as a boolean mask over ``q``; the estimators check their ids
    before they get here.
    """
    if spec.q is None:
        return _fx_values(spec, p, 0.0)
    return _fx_values(spec, p, spec.q[symbols])


def exact_value(spec: PropertySpec, p: np.ndarray) -> float:
    """Exact property value of an explicit probability vector."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be a 1-D probability vector")
    if not abs(float(p.sum()) - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"p must sum to 1 within {PROB_SUM_TOL}")
    if spec.q is not None and len(p) != len(spec.q):
        raise ValueError(
            f"dimension mismatch: p has {len(p)} entries, q has {len(spec.q)}"
        )
    values = eval_fx_many(spec, np.arange(len(p)), p)
    return float(values.sum()) + spec.report_offset


def lipschitz(spec: PropertySpec, h: float) -> float:
    """Lipschitz-type constant of the property on ``[h, 1]``.

    Table values: ``-log h`` for entropy, ``-log(h * min_x q_x)`` for KL,
    ``min(1, 1/(k h))`` for support size, and 1 for the remaining kinds.
    Feeds the coefficient clamp of the amplified estimator.
    """
    if not 0 < h <= 1:
        raise ValueError(f"h must be in (0, 1], got {h!r}")
    kind = spec.kind
    if kind == "entropy":
        return -math.log(h)
    if kind == "kl_divergence":
        qmin = float(spec.q.min())
        if qmin <= 0:
            raise ValueError("KL smoothness undefined when q has zero entries")
        return -math.log(h * qmin)
    if kind == "support_size":
        return min(1.0, 1.0 / (spec.k * h))
    return 1.0
