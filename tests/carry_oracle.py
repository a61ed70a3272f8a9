"""References for carrying cones along a group map in kmfan.fans: the
per-cone formulations that the constructions and predicates replaced.

inflate_reference maps every cone with Cone.linear_image.
contract_reference and atoroidal_split_reference build every preimage cone
with Cone.from_generators on its own _preimage_rays, one linear system per
cone.  The predicate references map the rays of every cone anew, with no
ray map shared between cones: validate_hom and is_proper test containment on
the images themselves, is_semi_tame and is_equidimensional compare the
primitive images with the rays of the cone map's image.

The datum references push a datum generator by generator, where the library
takes one matrix product (LatticeDatum._image): image_reference through
GroupHom.apply, product_data_reference through both inclusions for every
pair of cones, dilate_data_reference by scaling each generator, and
scaled_markings_reference (roots and canonical_resolution) with a
contains_cone scan of every ray for every cone.
tests/test_fans.py compares the library with these.  The reference fans
are built with unchecked_fan, which validates them without trusting a
handed-over verdict.
"""

from typing import Dict, Tuple

from kmfan.abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    _quotient_presentation,
    direct_sum,
    free_quotient,
    kernel_subgroup,
    preimage_subgroup,
)
from kmfan.cones import Cone, _preimage_rays, union_covers
from kmfan.fans import (
    HomRefusal,
    KmFan,
    KmFanHom,
    LatticeDatum,
    _data_sum,
    _matrix_add,
    _require_finite_cokernel,
    product,
    ray_marking,
    zero_fan,
)
from kmfan.intlinalg import primitive_vector

from conftest import unchecked_fan


def inflate_reference(fan: KmFan, inclusion: GroupHom) -> Tuple[KmFan, Dict[Cone, Cone]]:
    """The inflated fan and its cone map, each cone a linear image."""
    fbar = inclusion.free_matrix()
    cone_map, data = {}, {}
    for c in fan.cones:
        newc = c.linear_image(fbar)
        cone_map[c] = newc
        gens = [inclusion.apply(g) for g in fan.data[c].generators()]
        data[newc] = LatticeDatum.from_generators(inclusion.target, gens)
    return unchecked_fan(inclusion.target, cone_map.values(), data), cone_map


def image_reference(datum: LatticeDatum, hom: GroupHom) -> LatticeDatum:
    """The subgroup the images of the datum's generators generate."""
    return LatticeDatum.from_generators(hom.target, [hom.apply(g) for g in datum.generators()])


def product_data_reference(a: KmFan, b: KmFan) -> Dict[Tuple[Cone, Cone], LatticeDatum]:
    """The datum of each product cone, keyed by its pair of factor cones:
    both bases mapped through their inclusions anew for every pair."""
    grp, inc1, inc2, _, _ = direct_sum(a.group, b.group)
    return {
        (ca, cb): LatticeDatum.from_generators(
            grp, [inc1.apply(g) for g in a.data[ca].generators()] + [inc2.apply(g) for g in b.data[cb].generators()]
        )
        for ca in a.cones
        for cb in b.cones
    }


def dilate_data_reference(fan: KmFan, factor: int) -> Dict[Cone, LatticeDatum]:
    """factor times each generator of each datum."""
    return {
        c: LatticeDatum.from_generators(fan.group, [tuple(factor * x for x in g) for g in fan.data[c].generators()])
        for c in fan.cones
    }


def scaled_markings_reference(fan: KmFan, orders) -> Dict[Cone, LatticeDatum]:
    """The datum of each cone spanned by the scaled markings of the ray
    cones it contains, every ray tested against every cone."""
    rays = fan.ray_cones()
    marking = [ray_marking(fan, ray) for ray in rays]
    return {
        c: LatticeDatum.from_generators(
            fan.group, [tuple(a * x for x in m) for ray, a, m in zip(rays, orders, marking) if c.contains_cone(ray)]
        )
        for c in fan.cones
    }


def contract_reference(fan: KmFan, inclusion: GroupHom) -> Tuple[KmFan, Dict[Cone, Cone]]:
    """The preimage of every cone and datum, with the cone map back."""
    fbar = inclusion.free_matrix()
    back, data = {}, {}
    for c in fan.cones:
        newc = Cone.from_generators(_preimage_rays(fbar, c.rays), inclusion.source.free_rank)
        back[newc] = c
        data[newc] = LatticeDatum(inclusion.source, preimage_subgroup(inclusion, fan.data[c].subgroup))
    return unchecked_fan(inclusion.source, back, data), back


def atoroidal_split_reference(fan: KmFan) -> Tuple[KmFan, FgaGroup, KmFanHom]:
    """G, B and the isomorphism G x zero_fan(B) -> F."""
    n = fan.group
    pres = _quotient_presentation(n, _data_sum(fan))
    bgrp, free_proj = free_quotient(pres.group)
    a_grp, incl = kernel_subgroup(GroupHom(n, pres.group, pres.proj).then(free_proj)).as_group()
    g_fan, back = contract_reference(fan, incl)
    section = pres.section.select_columns(range(bgrp.ncoords))
    prod, p1, p2 = product(g_fan, zero_fan(bgrp))
    iso_matrix = _matrix_add(incl.matrix @ p1.hom.matrix, section @ p2.hom.matrix)
    iso_images = {c: back[p1.cone_images[c]] for c in prod.cones}
    return g_fan, bgrp, KmFanHom(prod, fan, GroupHom(prod.group, n, iso_matrix), iso_images)


def validate_hom_reference(f: GroupHom, source: KmFan, target: KmFan):
    """The first containing target cone of each source cone, tested on the
    images of its rays, and its datum."""
    fbar = f.free_matrix()
    images = {}
    for sigma in source.cones:
        img_gens = [fbar.apply(r) for r in sigma.rays]
        minimal = next((c for c in target.cones if all(c.contains_point(g) for g in img_gens)), None)
        if minimal is None:
            return HomRefusal(sigma, "image of the cone is not contained in any target cone")
        datum = target.datum(minimal)
        if not all(datum.contains(f.apply(g)) for g in source.datum(sigma).generators()):
            return HomRefusal(sigma, "lattice datum does not map into the datum of the minimal cone")
        images[sigma] = minimal
    return KmFanHom(source, target, f, images)


def is_equidimensional_reference(f: KmFanHom) -> bool:
    _require_finite_cokernel(f)
    fbar = f.hom.free_matrix()
    return all(
        {primitive_vector(fbar.apply(r)) for r in sigma.rays}.issuperset(f.cone_images[sigma].rays)
        for sigma in f.source.cones
    )


def is_semi_tame_reference(f: KmFanHom) -> bool:
    fbar = f.hom.free_matrix()
    images = []
    for sigma in f.source.cones:
        image = f.cone_images[sigma]
        if image.dim() != sigma.dim():
            return False
        if tuple(sorted({primitive_vector(fbar.apply(r)) for r in sigma.rays})) != image.rays:
            return False
        mapped = Subgroup.from_generators(
            f.target.group, [f.hom.apply(g) for g in f.source.datum(sigma).generators()]
        )
        if mapped != f.target.datum(image).subgroup:
            return False
        images.append(image)
    return len(set(images)) == len(f.source.cones) and set(images) == set(f.target.cones)


def is_proper_reference(f: KmFanHom) -> bool:
    fbar = f.hom.free_matrix()
    for tau in f.target.maximal_cones():
        pieces = [
            sigma for sigma in f.source.cones if all(tau.contains_point(fbar.apply(r)) for r in sigma.rays)
        ]
        if not union_covers(tau.preimage(fbar), pieces):
            return False
    return True
