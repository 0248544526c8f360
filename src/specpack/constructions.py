"""Explicit unit-area domains hitting any prescribed second nonzero Neumann
eigenvalue, plus the convex-domain eigenvalue bound used alongside them.

The target range is [0, 2*pi*j'_{1,1}^2] (zero up to the class maximum of the
second eigenvalue, attained by two equal disks).  Four constructions cover it:

  * t = 0:                     three equal disks (mu_1 = mu_2 = 0)
  * 0 < t <= pi^2:             rectangle (t-eps)/(pi sqrt t) x pi/sqrt t
                               plus a disk of area eps/t
  * pi^2 < t <= pi j'^2:       rectangle pi/sqrt t x (pi/sqrt t - eps)
                               plus the area-completing disk
  * pi j'^2 < t <= 2 pi j'^2:  two disks, the larger of area pi j'^2 / t

In each rectangle branch the slack eps keeps the filler disk's first nonzero
eigenvalue strictly above t; the default eps is halved until that check
passes (it is verified, not assumed).
"""

import math
from dataclasses import dataclass

from .bessel import ZeroIndex, bessel_j_zero, bessel_jprime_zero
from .spectra import disk, rectangle, spectrum_of, union_spectrum
from .wolfkeller import PackedComponent, PackedDomain

PI = math.pi


class ConstructionError(ValueError):
    """Requested target cannot be realized by the supported constructions."""


def mu1_max():
    """pi * j'_{1,1}^2: the maximal first nonzero Neumann eigenvalue."""
    z = bessel_jprime_zero(ZeroIndex(1, 1))
    return PI * z * z


def mu2_max():
    """2 * pi * j'_{1,1}^2: the maximal second nonzero Neumann eigenvalue."""
    return 2.0 * mu1_max()


@dataclass(frozen=True)
class RangeTarget:
    """Target second eigenvalue t with the construction slack epsilon."""

    t: float
    epsilon: float

    def __post_init__(self):
        top = mu2_max()
        if not 0.0 <= self.t <= top * (1.0 + 1e-12):
            raise ConstructionError(
                f"t must lie in [0, {top:.6f}], got {self.t}"
            )
        if self.t > 0 and self.epsilon <= 0:
            raise ConstructionError("epsilon must be positive")
        if 0 < self.t <= PI * PI and self.epsilon >= self.t:
            raise ConstructionError(
                "epsilon must stay below t in the low rectangle branch"
            )


def default_epsilon(t):
    return min(t / 100.0, 0.01)


BRANCHES = ("three_disks", "rect_low", "rect_high", "two_disks")


def _branch_for(t):
    if t == 0.0:
        return "three_disks"
    if t <= PI * PI:
        return "rect_low"
    if t <= mu1_max():
        return "rect_high"
    return "two_disks"


def _components(target, branch):
    t = target.t
    eps = target.epsilon
    if branch == "three_disks":
        third = 1.0 / 3.0
        return [
            PackedComponent(disk(), third, None),
            PackedComponent(disk(), third, None),
            PackedComponent(disk(), third, None),
        ]
    if branch == "two_disks":
        big = mu1_max() / t
        if not big <= 1.0 + 1e-12:
            raise ConstructionError(
                f"two-disk branch needs t >= {mu1_max():.6f}, got {t}"
            )
        small = 1.0 - big
        comps = [PackedComponent(disk(), min(big, 1.0), 1)]
        if small > 1e-15:
            comps.append(PackedComponent(disk(), small, None))
        return comps
    if branch == "rect_low":
        a = (t - eps) / (PI * math.sqrt(t))
        b = PI / math.sqrt(t)
        if a <= 0:
            raise ConstructionError("low branch needs epsilon < t")
        if a > b:
            raise ConstructionError(
                f"low rectangle branch invalid for t = {t} (needs t - eps <= pi^2)"
            )
        rect = rectangle(a, b)
        return [
            PackedComponent(rect, a * b, 1),
            PackedComponent(disk(), eps / t, None),
        ]
    if branch == "rect_high":
        b = PI / math.sqrt(t)
        if b - eps <= 0:
            raise ConstructionError("high branch needs epsilon < pi/sqrt(t)")
        if b > 1.0 + 1e-12:
            raise ConstructionError(
                f"high rectangle branch invalid for t = {t} (needs t >= pi^2)"
            )
        rect = rectangle(b, b - eps)
        return [
            PackedComponent(rect, b * (b - eps), 1),
            PackedComponent(disk(), 1.0 - b * (b - eps), None),
        ]
    raise ConstructionError(f"unknown branch {branch!r}")


def _filler_ok(components, t):
    # every non-supporting component must keep its first nonzero eigenvalue
    # strictly above t
    for c in components:
        if c.support_index is not None:
            continue
        first = spectrum_of(c.shape, 1).nonzero(1) / c.volume
        if not first > t * (1.0 + 1e-12):
            return False
    return True


def mu2_range_domain(target, branch=None):
    """Unit-area disjoint union whose second nonzero Neumann eigenvalue is
    target.t (verify with verified_mu2).

    ``target`` may be a RangeTarget or a plain float (default epsilon).
    ``branch`` overrides the branch choice, e.g. to exercise both sides of a
    branch boundary.
    """
    if not isinstance(target, RangeTarget):
        t = float(target)
        target = RangeTarget(t, default_epsilon(t) if t > 0 else 1.0)
    branch = branch or _branch_for(target.t)
    if branch not in BRANCHES:
        raise ConstructionError(f"unknown branch {branch!r}")
    if target.t == 0.0 or branch in ("three_disks", "two_disks"):
        comps = _components(target, branch)
        return PackedDomain(tuple(comps))
    for _ in range(50):
        comps = _components(target, branch)
        if _filler_ok(comps, target.t):
            return PackedDomain(tuple(comps))
        target = RangeTarget(target.t, target.epsilon / 2.0)
    raise ConstructionError(
        f"no epsilon kept the filler eigenvalue above t = {target.t} "
        f"after 50 halvings"
    )


def verified_mu2(domain, k=3):
    """(mu_1, mu_2, mu_3) of the packed domain via the union spectrum."""
    parts = [(spectrum_of(c.shape, k), c.volume) for c in domain.components]
    spec = union_spectrum(parts, k)
    return spec.eigenvalue(1), spec.eigenvalue(2), spec.eigenvalue(3)


def kroger_bound(m, diameter):
    """Upper bound (2 j_{0,1} + (m-1) pi)^2 / diameter^2 for the m-th nonzero
    Neumann eigenvalue of a bounded convex planar domain."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    j01 = bessel_j_zero(ZeroIndex(0, 1))
    return (2.0 * j01 + (m - 1) * PI) ** 2 / (diameter * diameter)
