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

In each rectangle construction the slack eps = min(t/100, 0.01) keeps the
filler disk's first nonzero eigenvalue strictly above t.  That is verified,
not assumed: a filler at or below t raises AccuracyError.
"""

import math

from ._kernels_py import check_integer
from .bessel import AccuracyError, ZeroIndex, bessel_j_zero, bessel_jprime_zero
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


def mu2_range_domain(t):
    """Unit-area disjoint union whose second nonzero Neumann eigenvalue is t
    (verify with verified_mu2).

    t selects the construction (see the module docstring).  The rectangle
    constructions use the slack eps = min(t/100, 0.01), and raise
    AccuracyError unless the filler disk's first nonzero eigenvalue lies
    above t.
    """
    t = float(t)
    top = mu2_max()
    if not 0.0 <= t <= top * (1.0 + 1e-12):
        raise ConstructionError(f"t must lie in [0, {top:.6f}], got {t}")
    if t == 0.0:
        return PackedDomain((PackedComponent(disk(), 1.0 / 3.0, None),) * 3)
    if t > mu1_max():
        big = mu1_max() / t
        small = 1.0 - big
        comps = [PackedComponent(disk(), big, 1)]
        if small > 1e-15:
            comps.append(PackedComponent(disk(), small, None))
        return PackedDomain(tuple(comps))
    eps = min(t / 100.0, 0.01)
    if eps <= 0:  # t/100 underflows for the smallest subnormal t
        raise ConstructionError("epsilon must be positive")
    b = PI / math.sqrt(t)
    if t <= PI * PI:
        a = (t - eps) / (PI * math.sqrt(t))
        support = PackedComponent(rectangle(a, b), a * b, 1)
        filler = PackedComponent(disk(), eps / t, None)
    else:
        support = PackedComponent(rectangle(b, b - eps), b * (b - eps), 1)
        filler = PackedComponent(disk(), 1.0 - b * (b - eps), None)
    first = spectrum_of(filler.shape, 1).nonzero(1) / filler.volume
    if not first > t * (1.0 + 1e-12):
        raise AccuracyError(f"filler eigenvalue {first!r} is not above t = {t!r}")
    return PackedDomain((support, filler))


def verified_mu2(domain):
    """(mu_1, mu_2, mu_3) of the packed domain via the union spectrum."""
    parts = [(spectrum_of(c.shape, 3), c.volume) for c in domain.components]
    spec = union_spectrum(parts, 3)
    return spec.eigenvalue(1), spec.eigenvalue(2), spec.eigenvalue(3)


def kroger_bound(m, diameter):
    """Upper bound (2 j_{0,1} + (m-1) pi)^2 / diameter^2 for the m-th nonzero
    Neumann eigenvalue of a bounded convex planar domain."""
    m = check_integer("m", m, 1)
    if not 0 < diameter < math.inf:
        raise ValueError("diameter must be positive and finite")
    j01 = bessel_j_zero(ZeroIndex(0, 1))
    return (2.0 * j01 + (m - 1) * PI) ** 2 / (diameter * diameter)
