"""Additive distribution properties and their per-symbol evaluators.

A property is a sum over symbols, ``f(p) = sum_x f_x(p_x)``, where every
per-symbol function satisfies ``f_x(0) = 0``.  Distance-like properties are
therefore stored in an offset form (``|p_x - q_x| - q_x``); the constant that
restores the conventional value is carried as ``report_offset`` and added
only when an estimate or exact value is reported.  Arguments above 1, which
arise from count ratios, evaluate as ``f_x(1)``.

Each kind is one :class:`Kind` record in :data:`KINDS`.  :func:`eval_fx_grid`
evaluates its ``f_x`` at probabilities and, for l1/kl, reference masses
``q_x`` aligned with them; :func:`eval_fx_many` gathers those from ``q``.

A kind whose record has ``weights`` also carries a route to the amplified
estimator's small-branch weights that does not sum the weight series:
the weight at count ``v`` is the formal mean of ``f(U / lambda)`` under
``U ~ Binomial(v, t)``, ``t > 1``, which for such a kind has a closed form
or a one-dimensional integral whose terms do not cancel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KINDS",
    "Kind",
    "PropertySpec",
    "entropy",
    "support_size",
    "support_coverage",
    "power_sum",
    "distance_to_uniformity",
    "l1_distance",
    "kl_divergence",
    "eval_fx_grid",
    "eval_fx_many",
    "exact_value",
    "lipschitz",
]

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Kind:
    """One property kind.

    ``reads``: the spec parameters it requires, the only ones a spec of it
    accepts.  ``fx(spec, p, qx)``: the offset ``f_x`` at ``p`` in (0, 1], given
    reference masses ``qx`` if it reads ``q``; :func:`eval_fx_grid` writes
    ``f_x(0) = +0.0`` itself.  ``lipschitz(spec, h)``: the constant on
    ``[h, 1]``, KL's taken over the positive masses of ``q``.
    ``report_offset``: the mass the offset form subtracts.  ``preset``: the
    amplified estimator's ``(c, e, m)`` for ``t = c * log(n)^e + 1`` and
    ``s0 = round(m * log(n)^0.2)``; None: no preset.  ``weights(spec, v,
    t, lam, qx)``: the weights ``sum_{u=1..v} C(v,u) t^u (1-t)^(v-u)
    f_x(u/lam)`` at counts ``v`` with amplifications ``t`` and ``lam = rate
    * t``, aligned arrays, where every ``u/lam <= 1`` and the Poisson tail
    factor is 1; None: the kind has no such route.
    """

    reads: tuple[str, ...]
    fx: Callable[[PropertySpec, np.ndarray, np.ndarray | None], np.ndarray]
    lipschitz: Callable[[PropertySpec, float], float] = lambda spec, h: 1.0
    report_offset: float = 0.0
    preset: tuple[float, float, float] | None = None
    weights: Callable[..., np.ndarray] | None = None


def _kl_fx(spec, p, qx):
    if np.any(np.broadcast_to(qx, p.shape) == 0):
        raise ValueError("KL divergence undefined: q_x = 0 with p_x > 0")
    return (np.log(p) - np.log(qx)) * p


# The quadrature's nodes: a tanh-sinh rule of step 1/16 over |s| <= 3.5, 113 of them.
_NODE_STEP, _NODE_REACH = 1.0 / 16.0, 56
# Above this many orders the numerator's boundary layer at y = 0 gets a piece of its own.
_LAYER_ORDERS = 40.0


@functools.cache
def _quadrature_nodes() -> tuple[np.ndarray, ...]:
    """The tanh-sinh rule on (0, 1): ``x``, its complement ``1 - x``, their logs, and the weights.

    Computed once per process, read-only.  Each node comes with ``log x`` and
    ``log(1 - x)`` from ``logaddexp``, accurate where ``x`` or ``1 - x``
    rounds to 1; nodes whose weight underflows are dropped.
    """
    s = np.arange(-_NODE_REACH, _NODE_REACH + 1) * _NODE_STEP
    u = 0.5 * math.pi * np.sinh(s)
    log_x, log_xc = -np.logaddexp(0.0, -2.0 * u), -np.logaddexp(0.0, 2.0 * u)
    w = _NODE_STEP * math.pi * np.cosh(s) * np.exp(log_x + log_xc)
    keep = w > 0.0
    nodes = tuple(a[keep] for a in (np.exp(log_x), np.exp(log_xc), log_x, log_xc, w))
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _log1p_mean(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``E log(1 + U)`` for ``U ~ Binomial(m, t)``, ``t > 1`` taken formally, per aligned entry.

    ``log(1 + U) = int_0^1 (1 - (1 - y)^U) / -log(1 - y) dy`` turns the
    mean into ``int_0^1 (1 - (1 - t y)^m) / -log(1 - y) dy``.  The integral
    is split at ``y = 1/t``, where ``1 - t y`` changes sign, and for ``m`` past
    ``_LAYER_ORDERS`` also at ``t y = _LAYER_ORDERS / m``, the width of the
    numerator's boundary layer at 0; each piece takes the tanh-sinh rule of
    :func:`_quadrature_nodes`.  Elementwise operations and one sum per row:
    each entry has the bits it has alone.
    """
    x, xc, log_x, log_xc, w = _quadrature_nodes()
    cut = _LAYER_ORDERS / np.maximum(m, _LAYER_ORDERS)  # t y at the layer's edge, 1 without a layer
    mc, tc, cc = m[:, None], t[:, None], cut[:, None]
    # [0, cut / t]: z = 1 - t y = 1 - cut * x, its log by log1p while z > 1/2.
    xp = cc * x
    log_z = np.log((1.0 - cc) + cc * xc)
    np.log1p(-xp, out=log_z, where=xp < 0.5)
    inner = cut / t * np.add.reduce(w * -np.expm1(mc * log_z) / -np.log1p(-xp / tc), axis=1)
    # [cut / t, 1/t] where there is a layer: 1 - t y = (1 - cut) * (1 - x).
    layer = cut < 1.0
    if layer.any():
        c, ml, tl = cc[layer], mc[layer], tc[layer]
        y = (c + (1.0 - c) * x) / tl
        terms = w * -np.expm1(ml * (np.log1p(-c) + log_xc)) / -np.log1p(-y)
        inner[layer] += (1.0 - cut[layer]) / t[layer] * np.add.reduce(terms, axis=1)
    # [1/t, 1]: 1 - y = (1 - 1/t) * (1 - x) and t y - 1 = (t - 1) * x, so (1 - t y)^m has one sign.
    with np.errstate(over="ignore"):  # past 1e308 the weight is clamped anyway
        power = np.exp(mc * (np.log(tc - 1.0) + log_x))
    power = np.where(mc % 2 == 1, -power, power)
    outer = (1.0 - 1.0 / t) * np.add.reduce(w * (1.0 - power) / -(np.log1p(-1.0 / tc) + log_xc), axis=1)
    return inner + outer


def _entropy_weights(spec, v, t, lam, qx):
    # E[U/lam log(lam/U)] = (v t / lam) (log lam - E log(1 + U')), U' ~ Binomial(v - 1, t).
    return v * t / lam * (np.log(lam) - _log1p_mean(v - 1.0, t))


def _kl_weights(spec, v, t, lam, qx):
    # f = p log p - p log q_x: minus the entropy weight, minus log(q_x) times the mean v t / lam.
    if np.any(qx == 0):
        raise ValueError("KL divergence undefined: q_x = 0 with p_x > 0")
    return v * t / lam * (_log1p_mean(v - 1.0, t) - np.log(lam) - np.log(qx))


def _support_size_weights(spec, v, t, lam, qx):
    # f = 1/k at every u >= 1: the mean of the indicator U > 0.
    with np.errstate(over="ignore"):  # past 1e308 the weight is clamped anyway
        return (1.0 - np.power(1.0 - t, v)) / spec.k


def _support_coverage_weights(spec, v, t, lam, qx):
    # f = (1 - e^(-m u/lam)) / m: one minus the binomial generating function at e^(-m/lam), over m.
    with np.errstate(over="ignore"):  # past 1e308 the weight is clamped anyway
        return (1.0 - np.power(1.0 - t * -np.expm1(-spec.m / lam), v)) / spec.m


KINDS = {
    "entropy": Kind((), lambda spec, p, qx: -(np.log(p) * p), lambda spec, h: -math.log(h),
                    preset=(2.0, 0.8, 16.0), weights=_entropy_weights),
    "support_size": Kind(("k",), lambda spec, p, qx: np.true_divide(p > 0, spec.k),
                         lambda spec, h: min(1.0, 1.0 / (spec.k * h)), preset=(1.0, 0.7, 16.0),
                         weights=_support_size_weights),
    "support_coverage": Kind(("m",), lambda spec, p, qx: -np.expm1(-spec.m * p) / spec.m,
                             preset=(1.0, 0.8, 8.0), weights=_support_coverage_weights),
    "power_sum": Kind(("a",), lambda spec, p, qx: p**spec.a, preset=(1.0, 1.0, 4.0)),
    "dist_to_uniform": Kind(("k",), lambda spec, p, qx: np.abs(p - 1.0 / spec.k) - 1.0 / spec.k,
                            report_offset=1.0, preset=(1.0, 0.7, 4.0)),
    "l1_distance": Kind(("q",), lambda spec, p, qx: np.abs(p - qx) - qx, report_offset=1.0),
    "kl_divergence": Kind(("q",), _kl_fx, lambda spec, h: -math.log(h * spec.q[spec.q > 0].min()),
                          weights=_kl_weights),
}


@dataclass(frozen=True)
class PropertySpec:
    """One additive property with its parameters.

    ``k`` is the support-size normalizer (support_size, dist_to_uniform),
    ``m`` the coverage horizon (support_coverage), ``a`` the power exponent
    (power_sum), and ``q`` the reference distribution (l1_distance,
    kl_divergence).  A spec requires the parameters its kind reads
    (``KINDS[kind].reads``) and refuses any other, so ``spec.k is not None``
    exactly when the kind's support is the ``k`` symbols ``0..k-1``.
    """

    kind: str
    k: int | None = None
    m: float | None = None
    a: float | None = None
    q: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown property kind {self.kind!r}")
        reads = KINDS[self.kind].reads
        for name in ("k", "m", "a", "q"):
            if name not in reads and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} does not read {name}")
        if "k" in reads:
            if self.k is None or self.k < 1 or self.k != int(self.k):
                raise ValueError(f"{self.kind} requires a positive integer k")
            object.__setattr__(self, "k", int(self.k))
        if "m" in reads and (self.m is None or not 0 < self.m < math.inf):
            raise ValueError(f"{self.kind} requires a finite m > 0")
        if "a" in reads and (self.a is None or not 1 < self.a < math.inf):
            raise ValueError(f"{self.kind} requires a finite exponent a > 1")
        if "q" in reads:
            if self.q is None:
                raise ValueError(f"{self.kind} requires a reference distribution q")
            q = np.asarray(self.q, dtype=np.float64)
            if q.ndim != 1 or len(q) == 0:
                raise ValueError("q must be a nonempty 1-D probability vector")
            if np.any(q < 0):
                raise ValueError("q must be nonnegative")
            if np.any(q > 1):
                raise ValueError("q must be at most 1")
            if not abs(float(q.sum()) - 1.0) <= PROB_SUM_TOL:
                raise ValueError(f"q must sum to 1 within {PROB_SUM_TOL}")
            q = q.copy()
            q.flags.writeable = False
            object.__setattr__(self, "q", q)

    @property
    def report_offset(self) -> float:
        """The mass the offset form subtracts: +1 for dist_to_uniform and l1_distance, 0 otherwise."""
        return KINDS[self.kind].report_offset

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropertySpec):
            return NotImplemented
        same_scalars = (self.kind, self.k, self.m, self.a) == (other.kind, other.k, other.m, other.a)
        # q by content; np.array_equal holds for two Nones and fails for one.
        return same_scalars and bool(np.array_equal(self.q, other.q))

    def __hash__(self) -> int:  # equal specs have equal scalars, whatever their q
        return hash((self.kind, self.k, self.m, self.a))


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


def eval_fx_grid(spec: PropertySpec, p: np.ndarray, qx=None) -> np.ndarray:
    """Offset per-symbol values ``f_x`` at probabilities ``p`` (clamped to [0, 1]).

    ``qx`` is the reference mass, a scalar or an array aligned with ``p``;
    l1/kl require it and the other kinds ignore it.  Every kind has
    ``f_x(0) = +0.0``: where some ``p`` is 0, ``Kind.fx`` runs on the
    positive entries alone, with their masses, and the zeros read +0.0.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and not p.max() <= 1.0:  # a copy only where some p > 1 (or is NaN)
        p = np.minimum(p, 1.0)
    low = p.min(initial=1.0)
    if not low >= 0:  # refuses NaN too
        raise ValueError("probabilities must be nonnegative")
    kind = KINDS[spec.kind]
    if qx is None and "q" in kind.reads:
        raise ValueError(f"{spec.kind} needs the symbols' reference masses qx")
    if low != 0:
        return kind.fx(spec, p, qx)
    pos = p > 0
    if "q" in kind.reads:
        qx = np.broadcast_to(qx, p.shape)[pos]
    out = np.zeros_like(p)
    out[pos] = kind.fx(spec, p[pos], qx)
    return out


def eval_fx_many(spec: PropertySpec, symbols: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``f_x(p_x)`` over aligned arrays of symbol indices and probabilities.

    For l1/kl the symbols index ``q`` and must lie in ``0..len(q)-1``, or
    are given as a boolean mask over ``q``; the estimators check their ids
    before they get here.
    """
    return eval_fx_grid(spec, p, None if spec.q is None else spec.q[symbols])


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
    if spec.k is not None and p[spec.k:].any():
        raise ValueError(f"{spec.kind} with k={spec.k} admits no mass beyond symbols 0..{spec.k - 1}")
    return float(eval_fx_grid(spec, p, spec.q).sum()) + spec.report_offset


def lipschitz(spec: PropertySpec, h: float) -> float:
    """Lipschitz-type constant of the property on ``[h, 1]``.

    Table values: ``-log h`` for entropy, ``-log(h * min q_x)`` for KL over
    the positive masses ``q_x`` (a zero mass is refused only where it is
    seen, by KL's ``f_x``), ``min(1, 1/(k h))`` for support size, and 1 for
    the remaining kinds.  Feeds the coefficient clamp of the amplified
    estimator.
    """
    if not 0 < h <= 1:
        raise ValueError(f"h must be in (0, 1], got {h!r}")
    return KINDS[spec.kind].lipschitz(spec, h)
