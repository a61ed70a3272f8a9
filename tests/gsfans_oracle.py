"""References for kmfan.gsfans: the full maximal-cone presentation of the
lattice-data colimit, and the rigidified unfolding in two steps.

full_maximal_cone_presentation emits, for every face tau with maximal
cofaces sigma_1, ..., sigma_k and every generator g of F_tau, the relation
g in sigma_1's block minus g in sigma_i's block, for i = 2, ..., k.
is_gs_representable_reference tests the block of every maximal cone against
the echelon of that presentation, saturated data included.
rigidified_unfold_reference builds the unfolding over the colimit of
gsfans.lattice_data_colimit, then pushes every datum into the colimit's
free quotient, with loops of its own.
per_vector_presentation and per_vector_colimit are the pruned
presentation and the colimit with the coordinates of each face vector in
a maximal coface solved on their own, every time they are read; the
presentation walks the faces of each maximal cone (Cone.faces) for the
cofaces, and links the maximal cofaces of each non-maximal cone that has
a face as a facet (Cone.facet_cones).
tests/test_gsfans.py compares the library's presentation, colimit,
representability test and one-pass rigidified unfolding with these.
"""

from typing import Dict, List, Optional, Tuple

from kmfan.abelian import FgaGroup, GroupHom, free_quotient, present_quotient
from kmfan.cones import Cone, _preimage_rays
from kmfan.fans import KmFan, KmFanHom, LatticeDatum
from kmfan.gsfans import lattice_data_colimit
from kmfan.intlinalg import IntMatrix, Vec, _row_echelon, is_saturated, solve_integer


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


def rigidified_unfold_reference(fan: KmFan) -> Tuple[KmFan, Optional[KmFanHom]]:
    """The rigidified unfolding in two steps.  First the unfolding over the
    colimit: the cones i(sigma), each datum generated by i_sigma of the
    basis of F_sigma.  Then each datum's generators pushed through the
    projection onto the colimit's free quotient.  For a lattice fan, also
    the map back: beta on the free generators of the colimit, with the cone
    map i(sigma) -> sigma.  The fan is built by the validating KmFan(...)."""
    unf = lattice_data_colimit(fan)
    lt = unf.colimit
    nbar, proj = free_quotient(lt)
    preimages: Dict[Cone, Cone] = {}
    data: Dict[Cone, LatticeDatum] = {}
    for sigma in fan.cones:
        datum = fan.data[sigma]
        imap = unf.structure_maps[sigma]
        rays_c = _preimage_rays(datum.free_basis(), sigma.rays)
        image = Cone.from_generators([imap.free_matrix().apply(r) for r in rays_c], lt.free_rank)
        units = IntMatrix.identity(datum.basis().cols).entries
        unfolded = LatticeDatum.from_generators(lt, [imap.apply(e) for e in units])
        preimages[image] = sigma
        data[image] = LatticeDatum.from_generators(nbar, [proj.apply(g) for g in unfolded.generators()])
    rig = KmFan(nbar, preimages, data)
    if not fan.group.is_lattice():
        return rig, None
    bbar_cols = [unf.beta.apply(e) for e in IntMatrix.identity(lt.ncoords).entries[: lt.free_rank]]
    betabar = GroupHom(rig.group, fan.group, IntMatrix._from_columns(bbar_cols, fan.group.ncoords))
    return rig, KmFanHom(rig, fan, betabar, preimages)


def coordinates_per_vector(datum: LatticeDatum, g: Vec) -> Vec:
    """The coordinates of an element of the datum in its basis, from a
    solve of its own on the preimage basis."""
    return solve_integer(datum.subgroup.preimage, datum.ambient.reduce(g))[: datum.rank()]


def class_heads_by_links(over: List[Cone], groups: List[List[Cone]]) -> List[Cone]:
    """The first cone, in the order of over, of each class of the
    equivalence on over that every group links, except over[0]'s class: a
    union-find, each group a sublist of over."""
    parent = {sigma: sigma for sigma in over}

    def find(sigma: Cone) -> Cone:
        while parent[sigma] is not sigma:
            parent[sigma] = parent[parent[sigma]]
            sigma = parent[sigma]
        return sigma

    for group in groups:
        root = find(group[0])
        for sigma in group[1:]:
            other = find(sigma)
            if other is not root:
                parent[other] = root
    seen = {find(over[0])}
    heads = []
    for sigma in over[1:]:
        root = find(sigma)
        if root not in seen:
            seen.add(root)
            heads.append(sigma)
    return heads


def per_vector_presentation(fan: KmFan) -> Tuple[Dict[Cone, int], Dict[Cone, List[Cone]], IntMatrix]:
    """gsfans._maximal_cone_presentation with one solve per basis vector of
    a face in each maximal coface whose block a relation reads."""
    offsets: Dict[Cone, int] = {}
    cofaces: Dict[Cone, List[Cone]] = {}
    total = 0
    for sigma in fan.maximal_cones():
        offsets[sigma] = total
        total += fan.data[sigma].rank()
        for tau in sigma.faces():
            cofaces.setdefault(tau, []).append(sigma)
    links: Dict[Cone, List[List[Cone]]] = {}
    if len(offsets) > 1:
        for rho, over in cofaces.items():
            if len(over) > 1 and rho.dim() > 1:
                for tau in rho.facet_cones():
                    links.setdefault(tau, []).append(over)
    rel_cols = []
    for tau, over in cofaces.items():
        if len(over) < 2:
            continue
        heads = class_heads_by_links(over, links[tau]) if tau in links else over[1:]
        for g in fan.data[tau].basis().columns():
            base = coordinates_per_vector(fan.data[over[0]], g)
            for sigma in heads:
                col = [0] * total
                for i, x in enumerate(base):
                    col[offsets[over[0]] + i] = x
                for i, x in enumerate(coordinates_per_vector(fan.data[sigma], g)):
                    col[offsets[sigma] + i] -= x
                rel_cols.append(tuple(col))
    return offsets, cofaces, IntMatrix._from_columns(rel_cols, total)


def per_vector_colimit(fan: KmFan) -> Tuple[FgaGroup, Dict[Cone, GroupHom], GroupHom]:
    """The colimit, the structure maps and beta of
    gsfans.lattice_data_colimit, from per_vector_presentation, with one
    solve per basis vector of each face in its first maximal coface."""
    offsets, cofaces, relations = per_vector_presentation(fan)
    pres = present_quotient(relations.rows, relations)
    colimit = pres.group
    structure = {}
    for c in fan.cones:
        sigma = cofaces[c][0]
        off, width = offsets[sigma], fan.data[sigma].rank()
        image = pres.proj.select_columns(range(off, off + width))
        if c != sigma:
            coords = [coordinates_per_vector(fan.data[sigma], g) for g in fan.data[c].basis().columns()]
            image = image @ IntMatrix._from_columns(coords, width)
        cols = [colimit.reduce(col) for col in image.columns()]
        structure[c] = GroupHom(FgaGroup(len(cols)), colimit, IntMatrix._from_columns(cols, colimit.ncoords))
    beta_cols = [fan.group.reduce(g) for m in offsets for g in fan.data[m].basis().columns()]
    beta = GroupHom(colimit, fan.group, IntMatrix._from_columns(beta_cols, fan.group.ncoords) @ pres.section)
    return colimit, structure, beta
