"""specpack: extremal Neumann/Dirichlet Laplace spectra over disjoint unions
of canonical domains (disks, rectangles, balls, boxes).

The package computes complete unit-volume spectra from its own Bessel-zero
tables, runs the extremal recursion over scaled disjoint unions, recovers the
optimal packing geometry, and ships a CLI for tables, certificates, crossover
scans, SVG figures, and explicit second-eigenvalue constructions.
"""

from .backend import BACKEND
from .bessel import (
    AccuracyError,
    ZeroIndex,
    ZeroTable,
    bessel_j,
    bessel_j_prime,
    bessel_j_zero,
    bessel_jprime_zero,
    spherical_bessel_j,
    spherical_bessel_j_prime,
    spherical_jprime_zero,
)
from .constructions import (
    kroger_bound,
    mu1_max,
    mu2_max,
    mu2_range_domain,
    verified_mu2,
)
from .spectra import (
    DomainShape,
    Mode,
    Spectrum,
    ball,
    ball_spectrum,
    box,
    box_spectrum,
    cube,
    disk,
    disk_spectrum,
    rectangle,
    rectangle_spectrum,
    spectrum_of,
    square,
    union_spectrum,
)
from .wolfkeller import (
    Connected,
    DomainClass,
    ExtremalSequence,
    PackedComponent,
    PackedDomain,
    Split,
    balls_class,
    connectedness_certificate,
    crossover_scan,
    cubes_class,
    dirichlet_disks_class,
    dirichlet_min_check,
    disks_class,
    extremal_sequence,
    squares_class,
    unpack_geometry,
)

__version__ = "0.1.0"
