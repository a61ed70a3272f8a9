"""The full maximal-cone presentation of the lattice-data colimit, kept as
a reference for the pruned one in kmfan.gsfans.

full_maximal_cone_presentation emits, for every face tau with maximal
cofaces sigma_1, ..., sigma_k and every generator g of F_tau, the relation
g in sigma_1's block minus g in sigma_i's block, for i = 2, ..., k.
is_gs_representable_reference tests the block of every maximal cone against
the echelon of that presentation, saturated data included.
tests/test_gsfans.py compares the library's presentation, colimit and
representability test with these.
"""

from typing import Dict, List, Tuple

from kmfan.abelian import FgaGroup, present_quotient
from kmfan.cones import Cone
from kmfan.fans import KmFan
from kmfan.intlinalg import IntMatrix, _row_echelon, is_saturated


def full_maximal_cone_presentation(fan: KmFan) -> Tuple[Dict[Cone, int], IntMatrix]:
    """The block offset of each maximal cone, and every relation."""
    offsets: Dict[Cone, int] = {}
    cofaces: Dict[Cone, List[Cone]] = {}
    total = 0
    for sigma in fan.maximal_cones():
        offsets[sigma] = total
        total += fan.data[sigma].rank()
        for tau in sigma.faces():
            cofaces.setdefault(tau, []).append(sigma)
    rel_cols = []
    for tau, over in cofaces.items():
        for g in fan.data[tau].basis().columns():
            base = fan.data[over[0]].coordinates(g)
            for sigma in over[1:]:
                col = [0] * total
                for i, x in enumerate(base):
                    col[offsets[over[0]] + i] = x
                for i, x in enumerate(fan.data[sigma].coordinates(g)):
                    col[offsets[sigma] + i] -= x
                rel_cols.append(tuple(col))
    return offsets, IntMatrix._from_columns(rel_cols, total)


def colimit_reference(fan: KmFan) -> FgaGroup:
    """The colimit group, in normal form, of the full presentation."""
    _, relations = full_maximal_cone_presentation(fan)
    return present_quotient(relations.rows, relations).group


def is_gs_representable_reference(fan: KmFan) -> bool:
    """Every maximal cone's block of the functionals that kill the full
    relations is saturated."""
    offsets, relations = full_maximal_cone_presentation(fan)
    echelon, t = _row_echelon(relations.entries, transform=True)
    free_rows = t.entries[len(echelon):]
    for sigma, off in offsets.items():
        width = fan.data[sigma].rank()
        block = IntMatrix._make(tuple(row[off:off + width] for row in free_rows), width)
        if not is_saturated(block):
            return False
    return True
