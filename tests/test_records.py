"""The public records: immutable named tuples with value semantics."""

import pytest

from specpack import spectra
from specpack.bessel import ZeroIndex, ZeroTable
from specpack.spectra import DomainShape, Mode, Spectrum
from specpack.wolfkeller import (
    Connected,
    DirichletCheck,
    DomainClass,
    ExtremalSequence,
    PackedComponent,
    PackedDomain,
    Split,
)

DISK = DomainShape("disk")
MODE = Mode((1, 0), 3.39, 2)
COMPONENT = PackedComponent(DISK, 0.5, 2)
DISKS = DomainClass("disks", DISK)

# each record type with its fields, in order, by keyword
RECORDS = [
    (ZeroIndex, {"order": 1, "rank": 2}),
    (DomainShape, {"kind": "rectangle", "bc": "dirichlet", "sides": (1.0, 2.0)}),
    (Mode, {"label": (1, 0), "value": 3.39, "multiplicity": 2}),
    (Spectrum, {"bc": "neumann", "dimension": 2, "volume": 1.0,
                "n_components": 1, "modes": (MODE,), "count": 2}),
    (DomainClass, {"name": "disks", "shape": DISK}),
    (Connected, {"index": 3, "tie": True}),
    (Split, {"i": 4}),
    (ExtremalSequence, {"domain_class": DISKS, "K": 2, "values": (None, 3.39, 6.78),
                        "powers": (None, 3.39, 6.78), "connected": (None, 3.39, 5.33),
                        "split_indices": (None, None, 1),
                        "provenance": (None, Connected(1), Split(1))}),
    (PackedComponent, {"shape": DISK, "volume": 0.5, "support_index": 2}),
    (PackedDomain, {"components": (COMPONENT,)}),
    (DirichletCheck, {"square_value": 1.0, "disks_value": 2.0,
                      "disks_exceed_square": True}),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_semantics(cls, fields):
    rec = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    assert not hasattr(rec, "__dict__")
    twin = cls(*fields.values())
    assert twin == rec and hash(twin) == hash(rec)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({body})"


def test_defaults():
    assert DomainShape("disk") == DomainShape("disk", "neumann", ())
    assert Mode((0, 1), 1.0).multiplicity == 1
    assert Connected(3).tie is False
    assert PackedComponent(DISK, 1.0).support_index is None


def test_rescaled_does_not_carry_the_cache():
    spec = spectra.disk_spectrum("neumann", 5)
    before = [v for v, _ in spec.expanded]
    scaled = spec.rescaled(2.0)
    assert [v for v, _ in scaled.expanded] == pytest.approx([v / 2 for v in before])
    assert [label for _, label in scaled.expanded] == [label for _, label in spec.expanded]


def test_expanded_is_a_fresh_list():
    spec = spectra.disk_spectrum("neumann", 5)
    values = spec.nonzero_values()
    spec.expanded[0] = (0.0, (9, 9))
    assert spec.nonzero_values() == values
    assert spec.nonzero(1) == values[0] > 0.0


def test_entries_look_up_by_zero_index():
    table = ZeroTable("bessel_prime")
    table.positive_zero(1, 3)
    entries = table.entries()
    assert entries[ZeroIndex(1, 3)] == table.zero(ZeroIndex(1, 3))
    assert entries[ZeroIndex(0, 2)] == table.zero(ZeroIndex(0, 2))

