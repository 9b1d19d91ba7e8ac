"""Value semantics of the slotted value classes.

Equal fields give equal objects with equal hashes, FactorLabels sort by
(d, l, level, degree), and the immutable classes refuse assignment and
deletion with AttributeError, yet still pickle and copy.
"""

import copy
import pickle

import pytest

from rbcm.cayley import MapStats
from rbcm.classify import FamilyParams
from rbcm.factorlift import FactorLabel, LabeledFactor
from rbcm.ideals import Admissibility, constant_ideal, crt_split
from rbcm.poly import FieldElement, Poly
from rbcm.structure import AbelianGroupTable
from rbcm.zring import Modulus, ResidueInt

H = Poly((2, 2, 1), Modulus(3))  # x^2 + 2x + 2, irreducible over Z_3

# Each factory builds a fresh object from the same fields on every call.
VALUES = {
    "Modulus": lambda: Modulus(3, 2),
    "ResidueInt": lambda: ResidueInt(11, Modulus(3, 2)),
    "Poly": lambda: Poly((1, 2), Modulus(3, 2)),
    "FieldElement": lambda: FieldElement(Poly((0, 1), Modulus(3)), H),
    "FactorLabel": lambda: FactorLabel(4, 1, 2, 2),
    "LabeledFactor": lambda: LabeledFactor(FactorLabel(1, 1, 0, 1), Poly((1, 1), Modulus(3))),
    "IdealPresentation": lambda: constant_ideal(3, Poly((1, 0, 1), Modulus(3, 2))),
    "AbelianGroupTable": lambda: AbelianGroupTable((3, 9)),
    "MapStats": lambda: MapStats(1, 2, 2, 0, (2, 2)),
    "FamilyParams": lambda: FamilyParams("cyclic", (("a", 1), ("b", 2))),
    "Admissibility": lambda: Admissibility(False, "i", "x^2+1 not in ideal"),
}

# One value per class whose fields differ from VALUES in exactly one place.
OTHER = {
    "Modulus": lambda: Modulus(3, 3),
    "ResidueInt": lambda: ResidueInt(1, Modulus(3, 2)),
    "Poly": lambda: Poly((1, 2), Modulus(3, 3)),
    "FieldElement": lambda: FieldElement(Poly((1, 1), Modulus(3)), H),
    "FactorLabel": lambda: FactorLabel(4, 1, 2, 4),
    "LabeledFactor": lambda: LabeledFactor(FactorLabel(1, 1, 1, 1), Poly((1, 1), Modulus(3))),
    "IdealPresentation": lambda: constant_ideal(1, Poly((1, 0, 1), Modulus(3, 2))),
    "AbelianGroupTable": lambda: AbelianGroupTable((3, 27)),
    "MapStats": lambda: MapStats(1, 2, 2, 0, (1, 3)),
    "FamilyParams": lambda: FamilyParams("cyclic", (("a", 1), ("b", 3))),
    "Admissibility": lambda: Admissibility(False, "ii", "x^2+1 not in ideal"),
}

FROZEN = {**VALUES, "CrtSplit": lambda: crt_split(3, 1, 4)}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    other = OTHER[name]()
    assert a != other and not a == other
    assert a != (a,)


def test_ideal_presentations_over_different_rings_differ():
    # same context coefficients and rows; only the context's ring differs
    a = constant_ideal(3, Poly((1, 0, 1), Modulus(3, 2)))
    b = constant_ideal(3, Poly((1, 0, 1), Modulus(3, 3)))
    assert (a.context_monic.coeffs, a.rows) == (b.context_monic.coeffs, b.rows)
    assert a.modulus != b.modulus
    assert a != b and len({a, b}) == 2


def test_residue_is_reduced_on_construction():
    assert ResidueInt(11, Modulus(3, 2)).value == 2
    assert ResidueInt(11, Modulus(3, 2)) == ResidueInt(-7, Modulus(3, 2))


def test_factor_labels_sort_by_d_l_level_degree():
    fields = [(4, 1, 0, 2), (1, 1, 2, 1), (2, 1, 0, 1), (1, 1, 0, 1), (4, 3, 0, 2), (1, 1, 0, 3), (2, 1, 1, 1)]
    labels = [FactorLabel(*f) for f in fields]
    assert [(x.d, x.l, x.level, x.degree) for x in sorted(labels)] == sorted(fields)
    a, b = FactorLabel(1, 1, 0, 1), FactorLabel(1, 1, 0, 3)
    assert a < b and a <= b and b > a and b >= a and a <= FactorLabel(1, 1, 0, 1)
    with pytest.raises(TypeError):
        a < (1, 1, 0, 1)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_classes_refuse_assignment(name):
    obj = FROZEN[name]()
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_classes_pickle_and_copy(name):
    obj = FROZEN[name]()
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone == obj
