"""GS fans, foldability, folding, and the unfolding universal constructions.

A GS fan is a classical fan in a lattice L plus a finite-cokernel lattice map
beta : L -> N.  Folding turns a foldable GS fan into a lattice KM fan;
unfolding builds, over the colimit of all lattice data, the universal
semi-tame cover of a KM fan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .abelian import FgaGroup, GroupHom, QuotientPresentation, present_quotient
from .cones import Cone, _preimage_rays, _separating_facet
from .errors import KmFanError, NonLattice, NotFoldable, PreconditionsFail
from .fans import (
    KmFan,
    KmFanHom,
    LatticeDatum,
    _canonical,
    _carried,
    _cone_violations,
    _fan_order,
    _ray_images,
    is_atoroidal,
    is_classical,
)
from .intlinalg import IntMatrix, Vec, _Value, _row_echelon, invariant_factors, is_saturated, primitive_vector


class GsFan(_Value):
    """A classical fan in a lattice L with a finite-cokernel map beta: L -> N."""

    __slots__ = ("fan", "beta")

    def __init__(self, fan: KmFan, beta: GroupHom):
        if not is_classical(fan):
            raise KmFanError("the fan of a GS fan must be classical")
        if beta.source != fan.group:
            raise KmFanError("beta must start at the fan's lattice")
        if not beta.target.is_lattice():
            raise NonLattice("beta must land in a lattice")
        # a map of lattices has finite cokernel iff its rank is the target's
        if len(invariant_factors(beta.matrix)) != beta.target.free_rank:
            raise KmFanError("beta must have finite cokernel")
        _set_fan(self, fan)
        _set_beta(self, beta)

    def __repr__(self):
        return f"GsFan(L={self.fan.group!r}, N={self.beta.target!r})"


# slot setters, bound once (see intlinalg._Value)
_set_fan = GsFan.fan.__set__
_set_beta = GsFan.beta.__set__


def is_foldable(gs: GsFan) -> Tuple[bool, List[dict]]:
    """Foldability: beta injective on every cone span, image interiors disjoint."""
    problems = _fold_images(gs)[1]
    return (not problems, problems)


def _fold_images(gs: GsFan) -> Tuple[Dict[Cone, Cone], List[dict], List[Cone]]:
    """The image beta(sigma) of every cone, the foldability problems, and,
    when there are none, the maximal images (fans._maximal_cones).

    Only the maximal cones are mapped (Cone.linear_image) and tested for
    collapse.  The span of a face lies in the span of its maximal cofaces,
    so when beta is injective on the span of every maximal cone it is on
    the span of every cone, and the faces are carried along it
    (fans._carried).  When one maximal cone collapses, every cone is mapped
    and tested, as the report names each collapsed cone.

    Where beta is injective on each span it carries the faces of sigma onto
    those of beta(sigma), so the images are sharp and closed under faces.
    Such a set is a fan exactly when distinct members have disjoint relative
    interiors: for x in the relative interior of a cap b, the minimal faces
    of a and b holding x hold it in their relative interiors, so are equal,
    and contain a cap b; conversely, in a fan a cap b is a face of both, so
    if it meets both relative interiors it is a and b.  So when no cone
    collapses and the images are distinct (equal nonzero images overlap),
    the fan validator decides.  The maximal images are then the images of
    the maximal cones: if beta(sigma) is a face of beta(rho), it is
    beta(tau) for a face tau of rho, and distinct images make sigma = tau.
    A refusal's report examines every pair: a facet of one image <= 0 on
    the other (cones._separating_facet) separates them; others are
    intersected.
    """
    problems: List[dict] = []
    bbar = gs.beta.free_matrix()
    top = {sigma: sigma.linear_image(bbar) for sigma in gs.fan.maximal_cones()}
    if all(image.dim() == sigma.dim() for sigma, image in top.items()):
        images = {**_carried(gs.fan.cones, _ray_images(bbar, gs.fan), bbar.rows), **top}
        if len(set(images.values())) == len(images):
            canonical = _canonical(images.values())
            maximal = sorted(top.values(), key=_fan_order)
            if not _cone_violations(gs.beta.target.free_rank, canonical, maximal):
                return images, problems, maximal
    else:
        images = {}
        for sigma in gs.fan.cones:
            image = top[sigma] if sigma in top else sigma.linear_image(bbar)
            images[sigma] = image
            if image.dim() != sigma.dim():
                problems.append({
                    "kind": "collapsed-cone",
                    "detail": f"beta is not injective on the span of {sigma!r}",
                })
    cones = list(gs.fan.cones)
    for i, a in enumerate(cones):
        for b in cones[i + 1:]:
            ia, ib = images[a], images[b]
            if _separating_facet(ia, ib) is not None:
                continue
            point = ia.intersect(ib).relative_interior_point()
            if all(c.classify_point(point)[0] == "interior" for c in (ia, ib)):
                problems.append({
                    "kind": "overlapping-images",
                    "detail": f"images of {a!r} and {b!r} have intersecting interiors",
                })
    return images, problems, []


def fold(gs: GsFan) -> Tuple[KmFan, KmFanHom]:
    """The folding: the lattice KM fan (N, {beta(sigma)}, {beta(L_sigma)}).

    The returned morphism beta : F -> fold(F, beta) is tame.  The folded
    fan is valid, and keeps its whole verdict.  _fold_images ran the cone
    phase of validation on its very cone set.  The data hold too: beta is
    injective on Span(sigma), which holds L_sigma, so beta(L_sigma) is a
    lattice (N is one) of rank dim sigma in Span(beta sigma); and for a face
    tau of sigma, beta(y) with y in L_sigma lies in Span(beta tau) =
    beta(Span(tau)) exactly when y lies in Span(tau), by that injectivity,
    so beta(L_tau) = Span(beta tau) cap beta(L_sigma).  So its validate()
    runs nothing.  The morphism keeps the semi-tame verdict the fold proved
    (KmFanHom._semi_tame): the images are distinct and are the folded
    fan's cones, beta is injective on every span and carries the rays of
    each cone onto those of its image, and each folded datum is beta(L_sigma)
    as is_semi_tame would rebuild it.  So is_tame computes only the kernel
    and cokernel of beta.
    """
    images, problems, maximal = _fold_images(gs)
    if problems:
        raise NotFoldable(problems)
    data = {image: gs.fan.data[sigma]._image(gs.beta) for sigma, image in images.items()}
    folded = KmFan._make(gs.beta.target, data.keys(), data, maximal)
    return folded, KmFanHom._semi_tame(gs.fan, folded, gs.beta, images)


class Unfolding:
    """The colimit of the lattice data with its structure maps.

    colimit: the group Ltilde in normal form.
    structure_maps: for each cone sigma, the map F_sigma -> Ltilde on the
    canonical basis of the lattice datum (source Z^{rank F_sigma}).
    beta: the induced map Ltilde -> N with beta o i_sigma the inclusion.
    block_offsets/presentation: the defining quotient of the direct sum of
    the lattice data of the maximal cones, and where each maximal cone's
    block starts in it; block_offsets covers the maximal cones only.
    """

    __slots__ = ("colimit", "structure_maps", "beta", "block_offsets", "presentation")

    def __init__(self, colimit: FgaGroup, structure_maps: Dict[Cone, GroupHom], beta: GroupHom,
                 block_offsets: Dict[Cone, int], presentation: QuotientPresentation):
        self.colimit = colimit
        self.structure_maps = dict(structure_maps)
        self.beta = beta
        self.block_offsets = dict(block_offsets)
        self.presentation = presentation


def _maximal_cone_presentation(
    fan: KmFan,
) -> Tuple[Dict[Cone, int], Dict[Cone, List[Cone]], IntMatrix, Dict[Cone, Dict[Vec, Vec]]]:
    """The colimit of the lattice data, presented on maximal-cone blocks.

    Returns the block offset of each maximal cone, the maximal cofaces of
    each cone (both in fan order; a maximal cone is its own), the
    relations: for each face tau with maximal cofaces sigma_1, ..., sigma_k,
    and each generator g of F_tau, g in sigma_1's block minus g in the block
    of the first cone of each other class of tau's linked cofaces (below),
    and the _face_coordinates table of the bases of the faces that emit a
    relation, in their sigma_1 and class heads, which lattice_data_colimit
    completes and reads its structure maps from.

    The colimit is defined on a block F_tau for every cone, with the
    relation g in rho's block = g in tau's block for each face pair
    tau < rho and g in a basis of F_tau.  Tietze moves take that to the
    full presentation on maximal cones: each non-maximal block F_tau is
    eliminated by its relation to the block of its sigma_1.  A relation for
    tau < rho then reads (g in the block of rho's sigma_1) = (g in the block
    of tau's sigma_1); both are maximal cofaces of tau, so it is the
    difference of two relations g in sigma_1's block = g in sigma_i's block,
    i = 2, ..., k, of tau.

    Most of those are redundant, and are not emitted.  Two maximal cofaces
    of tau are linked when both are cofaces of one non-maximal cone rho
    that has tau as a facet; the classes are those of the equivalence this
    generates (a maximal cone is its own only maximal coface, so it links
    nothing).  Claim: the relations kept, g in sigma_1's block = g in the
    block of the first coface of each other class, generate every relation
    of the full presentation.  By induction down from the top dimension,
    suppose they generate those of every face of dimension above dim tau.
    Take rho non-maximal with tau as a facet, and two of its maximal
    cofaces a, b.  F_tau = Span(tau) cap F_rho lies in F_rho, and the
    coordinates of an element in a block are linear in it, so for g in
    F_tau, g in a's block minus g in b's block is an integral combination
    of rho's full relations, which are generated by hypothesis.  Chaining
    such steps identifies g across each class, and the kept relations join
    each class to sigma_1's.  A face of top dimension is maximal and has
    none.  A non-maximal rho > tau of higher codimension would link nothing
    more: rho's face lattice is graded (Ziegler, Lectures on Polytopes,
    Ch. 2), so tau is a facet of some face rho' of rho in the fan,
    non-maximal as rho is, whose maximal cofaces include rho's.

    In free rank 2 and below nothing is pruned: a non-maximal cone with a
    facet of positive rank has dimension at least 2, and no such cone is
    a proper face there.  A fan with one maximal cone has no relations.
    """
    offsets: Dict[Cone, int] = {}
    cofaces: Dict[Cone, List[Cone]] = {}
    total = 0
    for sigma in fan.maximal_cones():
        offsets[sigma] = total
        total += fan.data[sigma].rank()
        for tau in sigma.faces():
            cofaces.setdefault(tau, []).append(sigma)

    # the coface lists of the non-maximal cones that have each face as a
    # facet; facets of dimension 0 have no generators and are skipped
    links: Dict[Cone, List[List[Cone]]] = {}
    if len(offsets) > 1:
        for rho, over in cofaces.items():
            if len(over) > 1 and rho.dim() > 1:
                for tau in rho.facet_cones():
                    links.setdefault(tau, []).append(over)

    # each face of positive rank with several maximal cofaces (so not
    # maximal) and a class head: the cofaces it reads coordinates in, its
    # first and its class heads, and its basis
    faces: List[Tuple[List[Cone], List[Vec]]] = []
    for tau, over in cofaces.items():
        if len(over) > 1 and fan.data[tau].rank():
            heads = _class_heads(over, links[tau]) if tau in links else over[1:]
            if heads:
                faces.append(([over[0], *heads], fan.data[tau].generators()))
    coords = _face_coordinates(fan, faces, {})

    rel_cols: List[Vec] = []
    for (first, *heads), basis in faces:
        off_first, table = offsets[first], coords[first]
        for g in basis:
            for sigma in heads:
                col = [0] * total
                for i, x in enumerate(table[g]):
                    col[off_first + i] = x
                off = offsets[sigma]
                for i, x in enumerate(coords[sigma][g]):
                    col[off + i] -= x
                rel_cols.append(tuple(col))
    return offsets, cofaces, IntMatrix._from_columns(rel_cols, total), coords


def _face_coordinates(fan: KmFan, faces: Iterable[Tuple[List[Cone], List[Vec]]],
                      coords: Dict[Cone, Dict[Vec, Vec]]) -> Dict[Cone, Dict[Vec, Vec]]:
    """coords, a table for each maximal cone sigma from vectors to their
    coordinates in F_sigma, completed from pairs (maximal cofaces of a
    face, basis of its datum): each distinct vector of the bases paired
    with a sigma that its table lacks is added, from one batched solve per
    sigma (LatticeDatum.coordinate_matrix)."""
    needs: Dict[Cone, Dict[Vec, None]] = {}
    for over, basis in faces:
        for sigma in over:
            table = coords.get(sigma, {})
            needs.setdefault(sigma, {}).update(dict.fromkeys(g for g in basis if g not in table))
    for sigma, vectors in needs.items():
        if vectors:
            x = fan.data[sigma].coordinate_matrix(vectors)
            if x is None:
                raise KmFanError(f"internal: a face datum lies outside the datum of {sigma!r}")
            coords.setdefault(sigma, {}).update(zip(vectors, x.columns()))
    return coords


def _class_heads(over: List[Cone], groups: List[List[Cone]]) -> List[Cone]:
    """The first cone, in the order of over, of each class of the
    equivalence on over that every group links, except over[0]'s class.
    A union-find; each group is a sublist of over."""
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


def lattice_data_colimit(fan: KmFan) -> Unfolding:
    """Colimit of {F_sigma} over the face relations, with structure maps.

    The normal form of the maximal-cone presentation
    (_maximal_cone_presentation).  The structure map of a maximal cone is
    the projection of its block; that of any other cone tau is the map of
    its first maximal coface sigma, read on the coordinates of F_tau's basis
    in F_sigma, from the presentation's coordinate table, completed with
    the vectors it lacks: no vector is solved twice in one sigma.  beta
    sends each block generator to its element of N, and reads the colimit
    through the presentation's section.

    The internal check that beta o i_c is the inclusion of F_c runs on the
    maximal cones only, and the identity follows for every other cone tau.
    Write C for the coordinates of F_tau's basis in F_sigma, sigma its first
    maximal coface: they are exact solutions, so B_sigma C = B_tau in N
    for the bases B.  And i_tau = i_sigma o C, so
    beta o i_tau = (beta o i_sigma) o C, which sends e_j to B_sigma C e_j,
    the j-th element of B_tau, once beta o i_sigma is the inclusion.
    """
    offsets, cofaces, relations, coords = _maximal_cone_presentation(fan)
    bases = {c: fan.data[c].generators() for c in fan.cones if c not in offsets}
    _face_coordinates(fan, [([cofaces[c][0]], basis) for c, basis in bases.items()], coords)
    pres = present_quotient(relations.rows, relations)
    colimit = pres.group
    structure: Dict[Cone, GroupHom] = {}
    for c in fan.cones:
        sigma = cofaces[c][0]
        off, width = offsets[sigma], fan.data[sigma].rank()
        image = pres.proj.select_columns(range(off, off + width))
        if c not in offsets:
            image = image @ IntMatrix._from_columns([coords[sigma][g] for g in bases[c]], width)
        structure[c] = GroupHom(FgaGroup(image.cols), colimit, image)
    # beta: send each block generator to the corresponding element of N
    beta_cols = [fan.group.reduce(g) for m in offsets for g in fan.data[m].basis().columns()]
    beta_on_blocks = IntMatrix._from_columns(beta_cols, fan.group.ncoords)
    beta = GroupHom(colimit, fan.group, beta_on_blocks @ pres.section)
    # sanity: beta o i_sigma is the inclusion F_sigma -> N, on the maximal
    # cones; the others follow (see above)
    for c, off in offsets.items():
        if structure[c].then(beta).matrix.columns() != tuple(beta_cols[off:off + fan.data[c].rank()]):
            raise KmFanError("internal: colimit structure map is inconsistent")
    return Unfolding(colimit, structure, beta, block_offsets=offsets, presentation=pres)


def induced_colimit_map(sub: Unfolding, sup: Unfolding) -> GroupHom:
    """The map of colimits induced by an inclusion of sub-KM-fans.

    Every cone of the sub-unfolding must appear, with the same lattice datum,
    in the super-unfolding.  A generator of sub's colimit lifts to sub's
    maximal-cone blocks, and each block maps by sup's structure map of its
    cone, which need not be maximal in the larger fan.
    """
    on_blocks = []
    for cone in sub.block_offsets:
        if cone not in sup.structure_maps:
            raise KmFanError("sub-fan cone missing from the larger fan")
        on_blocks.extend(sup.structure_maps[cone].matrix.columns())
    lt = sup.colimit
    images = IntMatrix._from_columns(on_blocks, lt.ncoords) @ sub.presentation.section
    cols = [lt.reduce(c) for c in images.columns()]
    return GroupHom(sub.colimit, lt, IntMatrix._from_columns(cols, lt.ncoords))


def _unfolded_fan(fan: KmFan, unf: Unfolding, group: FgaGroup) -> Tuple[KmFan, Dict[Cone, Cone]]:
    """The cones i(sigma) with the data i_sigma(F_sigma), over group: the
    colimit, or its free quotient.  The free quotient's coordinates are the
    colimit's first free_rank, so a datum is generated by the first
    group.ncoords rows of its structure map, whose columns are reduced.
    Returns the fan and the cone map i(sigma) -> sigma.

    The rays are mapped once per maximal cone sigma: one linear system on
    the free basis of F_sigma gives each ray's primitive preimage there,
    and the free part of i_sigma maps it.  That map is injective, as beta
    o i_sigma is the inclusion of F_sigma, whose free projection is; so
    every face of sigma is carried along it (fans._carried).  The structure
    maps commute with the inclusions (i_tau is i_sigma on F_tau), so a
    ray's image is the same from every maximal cone that holds it: one ray
    dict serves every cone.

    The fan is valid, and is handed its whole verdict with the images of
    the maximal cones, in fan order.  beta o i_sigma is the inclusion of
    F_sigma, so the free part of beta maps i(sigma) isomorphically back onto
    sigma, relative interiors onto relative interiors.  So the images are
    sharp and closed under faces, and two of them whose relative interiors
    meet are images of cones of the fan whose relative interiors meet, so
    are equal: the images form a fan, whose maximal cones are the images
    of the maximal cones (_fold_images).  If i_sigma(x) is torsion, so is
    x = beta(i_sigma(x)) in F_sigma, which meets N_tor in 0: i_sigma(F_sigma)
    is a lattice of rank dim sigma in Span(i(sigma)), and so is its free
    projection, over the free quotient (as in fans.rigidify).  For a face
    tau of sigma, i_tau is i_sigma on F_tau, and i_sigma(y) for y in F_sigma
    lies in Span(i(tau)) exactly when y lies in Span(tau), as the free part
    of i_sigma is injective on Span(sigma); so Span(i(tau)) cap
    i_sigma(F_sigma) = i_sigma(F_tau), and the same holds for the free
    projections.
    """
    ray: Dict[Vec, Vec] = {}
    for sigma in unf.block_offsets:
        ibar = unf.structure_maps[sigma].free_matrix()
        preimages = _preimage_rays(fan.data[sigma].free_basis(), sigma.rays)
        ray.update((r, primitive_vector(ibar.apply(x))) for r, x in zip(sigma.rays, preimages))
    images = _carried(fan.cones, ray, group.free_rank)
    cone_map = {image: sigma for sigma, image in images.items()}
    if len(cone_map) != len(fan.cones):
        raise KmFanError("internal: unfolding produced a duplicate cone")
    data = {}
    for image, sigma in cone_map.items():
        gens = [col[:group.ncoords] for col in unf.structure_maps[sigma].matrix.columns()]
        data[image] = LatticeDatum.from_generators(group, gens)
    maximal = sorted((images[sigma] for sigma in unf.block_offsets), key=_fan_order)
    return KmFan._make(group, cone_map, data, maximal), cone_map


def unfold(fan: KmFan) -> Tuple[KmFan, KmFanHom, Unfolding]:
    """The unfolding: the KM fan over the lattice-data colimit.

    Cones are the images i(sigma), with lattice data i_sigma(F_sigma); the
    induced map back to the fan is semi-tame, and tame when the fan is
    atoroidal and the colimit map has torsion-free kernel.
    """
    unf = lattice_data_colimit(fan)
    unfolded, preimages = _unfolded_fan(fan, unf, unf.colimit)
    return unfolded, KmFanHom(unfolded, fan, unf.beta, preimages), unf


def rigidified_unfold(fan: KmFan) -> Tuple[KmFan, Optional[KmFanHom]]:
    """The rigidification of the unfolding, built in one pass.

    fans.rigidify of the unfolding pushes each datum i_sigma(F_sigma) into
    the free quotient of the colimit, dropping the torsion coordinates, and
    keeps the cones.  So the fan is _unfolded_fan over the free quotient,
    with no fan over the colimit built first.

    When the fan's group is a lattice the induced map back to the fan exists
    and is returned; otherwise the map does not factor and None is returned.
    """
    unf = lattice_data_colimit(fan)
    lt = unf.colimit
    rig, preimages = _unfolded_fan(fan, unf, FgaGroup(lt.free_rank))
    if not fan.group.is_lattice():
        return rig, None
    # beta kills the colimit torsion (it lands in a lattice), so it factors
    betabar = GroupHom(rig.group, fan.group, unf.beta.matrix.select_columns(range(lt.free_rank)))
    return rig, KmFanHom(rig, fan, betabar, preimages)


def is_gs_representable(fan: KmFan) -> bool:
    """Whether a lattice KM fan is the folding of a GS fan.

    Test whether every structure map into the rigidified colimit has
    torsion-free cokernel (equivalently, is saturated).  The test runs on the
    fan itself, with no torus factor split off: the colimit is a function of
    the diagram of lattice data {F_sigma} and their face inclusions alone, and
    atoroidal_split carries that diagram isomorphically onto its atoroidal
    part (same cones, same subgroups, read through the injective inclusion
    A -> N), which leaves the cokernels' torsion unchanged.

    Only maximal cones are tested; saturation passes down to their faces.
    Each structure map into the free colimit is injective, since following
    it by the map to N (which factors through the free colimit, N being a
    lattice) gives the inclusion of F_sigma.  For a face tau of sigma,
    F_tau = Span(tau) cap F_sigma is saturated in F_sigma, and the map for
    tau is the map for sigma restricted to F_tau.  So when the image of
    F_sigma is saturated, the image of F_tau is saturated in it and hence in
    the free colimit.  Every cone is a face of a maximal cone.

    A maximal cone whose datum is saturated in N passes without the
    colimit.  Write i for its structure map into the free colimit L and
    beta : L -> N, so beta o i is the inclusion of F_sigma.  If k b = i(a)
    for b in L, a in F_sigma and k > 0, then k beta(b) = a lies in F_sigma,
    which is saturated, so beta(b) = a' for some a' in F_sigma.  Then
    beta(b - i(a')) = 0 and k (b - i(a')) = i(a - k a') lies in i(F_sigma),
    on which beta is injective, so it is 0; L is torsion-free, so
    b = i(a'), and i(F_sigma) is saturated in L.  Only the maximal cones
    with unsaturated data are tested, and when there are none (a classical
    fan, say) the answer is True with no presentation built.

    The colimit is the one lattice_data_colimit builds its normal form from:
    blocks for the maximal cones, and the relations of
    _maximal_cone_presentation.  Whether an image is saturated does not
    depend on the basis of the free colimit, so no normal form is built.
    One row echelon form T rel = [E; 0] of the relation columns gives it:
    T is unimodular, so its rows past the rank are a basis of the
    functionals that vanish on the relations, that is, coordinates on the
    colimit modulo its torsion.  The columns of those rows at sigma's block
    are the structure map of sigma, which is injective, so its image is
    saturated exactly when the block is (intlinalg.is_saturated).
    """
    if not fan.group.is_lattice():
        raise NonLattice("the test is defined for lattice KM fans")
    unsaturated = [s for s in fan.maximal_cones() if not is_saturated(fan.data[s].basis())]
    if not unsaturated:
        return True
    offsets, _, relations, _ = _maximal_cone_presentation(fan)
    echelon, t = _row_echelon(relations.entries, transform=True)
    free_rows = t.entries[len(echelon):]
    for sigma in unsaturated:
        off, width = offsets[sigma], fan.data[sigma].rank()
        block = IntMatrix._make(tuple(row[off:off + width] for row in free_rows), width)
        if not is_saturated(block):
            return False
    return True


def fold_unfold_roundtrip(fan: KmFan) -> bool:
    """Fold the rigidified unfolding back and compare with the fan itself.

    Requires a lattice, atoroidal, GS-representable KM fan.  The last is
    is_classical of the rigidified unfolding: its datum of sigma is the image
    of F_sigma in the free colimit, saturated exactly when that structure
    map has torsion-free cokernel, the test of is_gs_representable.
    """
    if not fan.group.is_lattice():
        raise PreconditionsFail("round trip requires a lattice KM fan")
    if not is_atoroidal(fan):
        raise PreconditionsFail("round trip requires an atoroidal fan")
    rig, betabar = rigidified_unfold(fan)
    if not is_classical(rig):
        raise PreconditionsFail("round trip requires a GS-representable fan")
    folded, _ = fold(GsFan(rig, betabar.hom))
    return folded == fan
