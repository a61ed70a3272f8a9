"""Affine monoids of lattice points: Hilbert bases, faces, kernel submonoids.

An AffineMonoid is the set of integer points of a rational polyhedral cone.
Such monoids are automatically fine and saturated.  The Hilbert basis
computation splits off the unit group, triangulates the sharp part, and
enumerates the fundamental parallelepiped of each simplicial piece.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import List, Sequence, Tuple

from .abelian import FgaGroup, GroupHom, kernel_subgroup
from .cones import Cone, _preimage_rays
from .errors import KmFanError, NotAFace, NotSharp
from .intlinalg import (
    IntMatrix,
    Vec,
    _Value,
    _back_substitute,
    _dot,
    _row_echelon,
    _transposed,
    is_saturated,
)


class AffineMonoid(_Value):
    """The monoid cone cap Z^r for a rational polyhedral cone."""

    __slots__ = ("cone", "_hilbert")

    def __init__(self, cone: Cone):
        _set_cone(self, cone)
        _set_hilbert(self, None)

    @property
    def ambient_lattice_rank(self) -> int:
        return self.cone.ambient_rank

    @property
    def unit_basis(self) -> Tuple[Vec, ...]:
        """Basis of the unit group: the lineality lattice of the cone."""
        return self.cone.lineality

    def contains(self, vector: Sequence[int]) -> bool:
        return self.cone.contains_point(vector)

    def is_sharp(self) -> bool:
        return self.cone.is_sharp()

    def gp_basis(self) -> IntMatrix:
        """Canonical basis of the group generated by the monoid.

        For a saturated monoid this is Span(cone) cap Z^r.
        """
        return self.cone.span_lattice_basis()

    def gp_rank(self) -> int:
        return self.gp_basis().cols

    def hilbert_basis(self) -> List[Vec]:
        """Minimal generating set of the sharp quotient plus +-units.

        Returns the irreducible elements of the sharp part (sorted), followed
        by u, -u for each unit basis vector u.
        """
        hilbert = self._hilbert
        if hilbert is None:
            hilbert = self._compute_hilbert()
            _set_hilbert(self, hilbert)
        return list(hilbert)

    def _compute_hilbert(self) -> Tuple[Vec, ...]:
        cone = self.cone
        units = list(cone.lineality)
        # the rays lie in the canonical complement W of the unit lattice U
        # (cones._complement_projector), a saturated one: Z^r is the direct
        # sum of W_Z and U_Z.  A point w + u lies in the cone exactly when w
        # lies in the sharp cone on the rays, whose Hilbert basis is the
        # sharp part's
        sharp = Cone(cone.ambient_rank, cone.rays, ()) if units else cone
        out = sorted(_sharp_hilbert_basis(sharp)) if cone.rays else []
        for u in units:
            out.append(u)
            out.append(tuple(-x for x in u))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, AffineMonoid) and self.cone == other.cone

    def __hash__(self):
        return hash(self.cone)

    def __repr__(self):
        return f"AffineMonoid({self.cone!r})"


# slot setters, bound once (see intlinalg._Value)
_set_cone = AffineMonoid.cone.__set__
_set_hilbert = AffineMonoid._hilbert.__set__


def _sharp_hilbert_basis(cone: Cone) -> List[Vec]:
    """Hilbert basis of a sharp cone's monoid of lattice points.

    The candidates (the rays and the parallelepiped points of a
    triangulation) hold every irreducible element.  The sum of the facets is
    a grading, positive on the cone minus 0: on a sharp cone only 0 lies on
    every facet.  Taken in order of grade, a candidate v is kept unless
    v - h lies in the cone for a kept h; an irreducible v is never so split,
    and a reducible one is the sum of irreducibles of smaller grade, kept
    before it.  So the kept set is the Hilbert basis whatever the grading.
    """
    candidates = set(cone.rays)
    for simplex in _pulling_triangulation(cone):
        candidates.update(_parallelepiped_points(simplex, cone.ambient_rank))
    candidates.discard((0,) * cone.ambient_rank)
    weight = tuple(map(sum, zip(*cone.facets)))
    graded = sorted((_dot(weight, v), v) for v in candidates)
    kept: List[Tuple[int, Vec]] = []
    for g, v in graded:
        # a reducible v is a sum of k >= 2 irreducibles, one of them of grade
        # at most g / k <= g / 2, so only the kept h of such grades are tried
        # (kept is in order of grade); h != v, so v - h is never 0
        halves = itertools.takewhile(lambda gh: 2 * gh[0] <= g, kept)
        if not any(cone.contains_point(tuple(a - b for a, b in zip(v, h))) for _, h in halves):
            kept.append((g, v))
    return [v for _, v in kept]


def _pulling_triangulation(cone: Cone) -> List[Tuple[Vec, ...]]:
    """Triangulate a sharp cone into simplicial subcones on its extremal rays."""
    rays = cone.rays
    if len(rays) == cone.dim():
        return [rays]
    v = rays[0]
    out = []
    for facet in cone.facet_cones():
        if v in facet.rays:
            continue
        for simplex in _pulling_triangulation(facet):
            out.append((v,) + simplex)
    return out


def _parallelepiped_points(simplex: Sequence[Vec], ambient: int) -> List[Vec]:
    """Lattice points in the half-open parallelepiped of independent vectors.

    Let V be the ambient x d matrix of the vectors and T V = [E; 0] its row
    echelon form: T is unimodular and E is d x d upper triangular with
    positive diagonal.  The integer points of Span(V) are the x with
    T x = [y; 0] for y in Z^d, and x = V l exactly when y = E l.  So the
    points of the parallelepiped are V frac(E^{-1} y), one for each class
    of Z^d / E Z^d, and the box 0 <= y_i < E_ii meets each class once.  In
    integers: for delta = det E, w = delta E^{-1} y = adj(E) y is integral,
    and the point is V (w mod delta) / delta.
    """
    echelon, _ = _row_echelon(_transposed(simplex, ambient))
    diag = [row[i] for i, row in enumerate(echelon)]
    delta = prod(diag)
    vmat = IntMatrix._from_columns(simplex, ambient)
    points = []
    for y in itertools.product(*map(range, diag)):
        w = _back_substitute(echelon, [delta * x for x in y], exact=True)
        scaled = vmat.apply([x % delta for x in w])
        if any(x % delta for x in scaled):
            raise KmFanError("internal: parallelepiped point is not integral")
        points.append(tuple(x // delta for x in scaled))
    return points


# ---------------------------------------------------------------------------
# Operation spellings
# ---------------------------------------------------------------------------


def dual_monoid(sigma: Cone, lattice_rank: int) -> AffineMonoid:
    """The monoid of integer points of the dual cone of sigma."""
    if sigma.ambient_rank != lattice_rank:
        raise KmFanError("cone rank does not match the lattice rank")
    return AffineMonoid(sigma.dual())


def face_of_monoid(monoid: AffineMonoid, tau: Cone) -> AffineMonoid:
    """The face of the monoid consisting of elements vanishing on tau.

    tau must be a face of the primal cone sigma (the dual of the monoid's
    cone).  Each generator of tau lies in sigma, so it is a valid inequality
    on sigma^v that vanishes on its lineality sigma^perp: the face
    sigma^v cap tau^perp is the one they cut out, by incidence with the rays.
    """
    if not tau.is_face_of(monoid.cone.dual()):
        raise NotAFace("tau is not a face of the primal cone")
    return AffineMonoid(monoid.cone._face(tau.generators()))


def kernel_submonoid(monoid: AffineMonoid, a: GroupHom) -> List[Vec]:
    """Generators of {p in monoid : a(p) = 0} for a character into a finite group.

    The character is given on the canonical gp basis of the monoid (see
    AffineMonoid.gp_basis); generators are returned in ambient coordinates.
    """
    if not a.target.is_finite():
        raise KmFanError("character target must be finite")
    gp = monoid.gp_basis()
    t = gp.cols
    if a.source != FgaGroup(t):
        raise KmFanError("character must be defined on the monoid's group")
    if t == 0:
        return []
    # kernel lattice of a inside Z^t (finite index)
    kmat = kernel_subgroup(a).preimage
    # rewrite the cone in kernel-lattice coordinates; gp @ kmat is injective
    kcone = Cone.from_generators(_preimage_rays(gp @ kmat, monoid.cone.generators()), kmat.cols)
    khb = AffineMonoid(kcone).hilbert_basis()
    return [tuple(gp.apply(kmat.apply(v))) for v in khb]


def is_free_monoid(monoid: AffineMonoid) -> bool:
    """Whether a sharp monoid is free (isomorphic to N^n): exactly when the
    cone is simplicial and its primitive rays span a saturated sublattice
    of Z^r.  No Hilbert basis is computed.

    Let P = sigma cap Z^r and L = Span(sigma) cap Z^r, a saturated lattice
    of rank n = dim sigma that P generates.  If P is free, its n free
    generators are its irreducible elements and a basis of L; sigma is the
    cone on them, so they are its n rays, each primitive in L and so in
    Z^r, and they span L, which is saturated.  Conversely, if sigma has n
    rays spanning a saturated sublattice, that sublattice has rank n and
    lies in L, so it is L; then an element of P has nonnegative, hence
    natural, coordinates on the rays, and P is N^n on them (Cox, Little
    and Schenck, Toric Varieties, Thm 3.1.19).
    """
    if not monoid.is_sharp():
        raise NotSharp("freeness is defined for sharp monoids")
    rays = monoid.cone.rays
    return len(rays) == monoid.cone.dim() and is_saturated(
        IntMatrix._from_columns(rays, monoid.ambient_lattice_rank)
    )
