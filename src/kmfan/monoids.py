"""Affine monoids of lattice points: Hilbert bases, faces, kernel submonoids.

An AffineMonoid is the set of integer points of a rational polyhedral cone.
Such monoids are automatically fine and saturated.  The Hilbert basis
computation splits off the unit group, triangulates the sharp part, and
enumerates the fundamental parallelepiped of each simplicial piece.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

from .abelian import FgaGroup, GroupHom, kernel_subgroup
from .cones import Cone, _lattice_complement, _preimage_rays
from .errors import KmFanError, NotAFace, NotSharp
from .intlinalg import (
    IntMatrix,
    LinearSystem,
    Vec,
    is_saturated,
    saturate,
    smith_decomposition,
)


class AffineMonoid:
    """The monoid cone cap Z^r for a rational polyhedral cone."""

    __slots__ = ("cone", "ambient_lattice_rank", "_hilbert", "_lock")

    def __init__(self, cone: Cone):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "ambient_lattice_rank", cone.ambient_rank)
        object.__setattr__(self, "_hilbert", None)
        object.__setattr__(self, "_lock", threading.Lock())

    def __setattr__(self, *args):
        raise AttributeError("AffineMonoid is immutable")

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
        with self._lock:
            if self._hilbert is None:
                object.__setattr__(self, "_hilbert", self._compute_hilbert())
        return list(self._hilbert)

    def generators(self) -> List[Vec]:
        return self.hilbert_basis()

    def _compute_hilbert(self) -> Tuple[Vec, ...]:
        cone = self.cone
        units = list(cone.lineality)
        if not cone.rays:
            sharp_part: List[Vec] = []
        elif units:
            # coordinates on a canonical complement of the unit lattice
            comp, coords = _lattice_complement(units, cone.ambient_rank)
            image = Cone.from_generators([coords.apply(r) for r in cone.rays], coords.rows)
            sharp_part = [comp.apply(v) for v in _sharp_hilbert_basis(image)]
        else:
            sharp_part = _sharp_hilbert_basis(cone)
        out = sorted(sharp_part)
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


def _sharp_hilbert_basis(cone: Cone) -> List[Vec]:
    """Hilbert basis of a sharp cone's monoid of lattice points."""
    if not cone.rays:
        return []
    candidates = set(cone.rays)
    for simplex in _pulling_triangulation(cone):
        candidates.update(_parallelepiped_points(simplex, cone.ambient_rank))
    candidates.discard((0,) * cone.ambient_rank)
    # strictly positive grading: sum of the dual cone's extremal rays
    dual = cone.dual()
    weight = tuple(sum(r[i] for r in dual.rays) for i in range(cone.ambient_rank))

    def grade(v: Vec) -> int:
        return sum(w * x for w, x in zip(weight, v))

    ordered = sorted(candidates, key=lambda v: (grade(v), v))
    kept: List[Vec] = []
    for v in ordered:
        reducible = False
        for h in kept:
            diff = tuple(a - b for a, b in zip(v, h))
            if any(diff) and cone.contains_point(diff):
                reducible = True
                break
        if not reducible:
            kept.append(v)
    return kept


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

    In span coordinates the vectors are the columns of a nonsingular vs,
    U vs V = D.  Each class z = U^{-1} rep (rep in the box of D) of
    Z^d / vs Z^d meets the parallelepiped in vs frac(vs^{-1} z), computed in
    integers: w = delta vs^{-1} z = V (delta D^{-1} rep) is integral for
    delta the largest invariant factor, and the point is vs (w mod delta) / delta.
    """
    vmat = IntMatrix._from_columns(simplex, ambient)
    span = saturate(vmat)
    d = span.cols
    # simplex vectors in span coordinates: a d x d nonsingular matrix
    in_span = LinearSystem(span)
    vcols = []
    for col in vmat.columns():
        sol = in_span.integer(col)
        if sol is None:
            raise KmFanError("internal: ray not in its own span lattice")
        vcols.append(sol)
    vs = IntMatrix._from_columns(vcols, d)
    s = smith_decomposition(vs, transforms=("v",))
    diag = s.diagonal()
    delta = diag[-1]
    reps = [()]
    for di in diag:
        reps = [r + (t * (delta // di),) for r in reps for t in range(di)]
    points = []
    for rep in reps:
        scaled = vs.apply([x % delta for x in s.v.apply(rep)])
        if any(x % delta for x in scaled):
            raise KmFanError("internal: parallelepiped point is not integral")
        points.append(span.apply([x // delta for x in scaled]))
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

    tau must be a face of the primal cone (the dual of the monoid's cone).
    """
    primal = monoid.cone.dual()
    if not tau.is_face_of(primal):
        raise NotAFace("tau is not a face of the primal cone")
    ortho = Cone.from_halfspaces(
        [], list(tau.rays) + list(tau.lineality), monoid.ambient_lattice_rank
    )
    return AffineMonoid(monoid.cone.intersect(ortho))


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
