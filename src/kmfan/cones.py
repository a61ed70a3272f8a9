"""Rational polyhedral cones in Z^r with exact double-description conversion.

A cone is its canonical V-data: primitive extremal ray representatives
(reduced against a canonical complement of the lineality lattice and sorted)
and a canonical lineality basis.  Two cones are equal as point sets iff their
V-data are equal.  The H-description (facet inequalities and span equations)
is derived on demand and cached.

A simplicial cone is its rays.  It is built without a double description
(DD), its faces are the subsets of its rays, and its H-description comes
from one row echelon form of its ray matrix.  The DD serves only the
other cones: a non-simplicial cone derives its H-description by one DD, its
faces are cut out by incidence with its facets, and a cone given by
inequalities and equations (intersections, preimages) takes its V-data from
one DD of those constraints.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .abelian import present_quotient
from .errors import DimensionMismatch, KmFanError, PieceOutsideTarget
from .intlinalg import (
    IntMatrix,
    LinearSystem,
    Vec,
    _Value,
    _back_substitute,
    _dot,
    _int_vector,
    _row_echelon,
    _transposed,
    hermite_column_basis,
    is_saturated,
    kernel_basis,
    primitive_vector,
    rank as matrix_rank,
    saturate,
)


def _rank_of_vectors(vectors: Sequence[Sequence[int]], ambient: int) -> int:
    if not vectors:
        return 0
    return matrix_rank(IntMatrix._make(tuple(vectors), ambient))


def _halfspace_intersection(ambient: int, inequalities: Sequence[Vec]):
    """V-description (rays, lineality) of {x : <g, x> >= 0 for all g}.

    Incremental double description with exact extremality filtering: a
    candidate ray is extremal iff its active constraints have rank
    ambient - dim(lineality) - 1.
    """
    rays: List[Vec] = []
    lin: List[Vec] = [tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient)]
    processed: List[Vec] = []

    for g in inequalities:
        g = primitive_vector(g)
        if not any(g):
            continue
        pivot_idx = next((i for i, l in enumerate(lin) if _dot(l, g) != 0), None)
        if pivot_idx is not None:
            l0 = lin[pivot_idx]
            p0 = _dot(l0, g)
            if p0 < 0:
                l0 = tuple(-x for x in l0)
                p0 = -p0
            new_lin = []
            for i, l in enumerate(lin):
                if i == pivot_idx:
                    continue
                p = _dot(l, g)
                if p == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(primitive_vector(tuple(p0 * a - p * b for a, b in zip(l, l0))))
            lin = _canonical_lattice_basis([l for l in new_lin if any(l)], ambient)
            rays = [
                primitive_vector(tuple(p0 * a - _dot(r, g) * b for a, b in zip(r, l0)))
                for r in rays
            ]
            rays = _dedupe(rays + [l0])
        else:
            plus = [r for r in rays if _dot(r, g) > 0]
            zero = [r for r in rays if _dot(r, g) == 0]
            minus = [r for r in rays if _dot(r, g) < 0]
            if minus:
                combos = []
                for p in plus:
                    wp = _dot(p, g)
                    for m in minus:
                        wm = _dot(m, g)
                        combos.append(primitive_vector(tuple(wp * a - wm * b for a, b in zip(m, p))))
                candidates = _dedupe(combos)
                active_consts = processed + [g]
                lin_dim = len(lin)
                kept = []
                for w in candidates:
                    if not any(w):
                        continue
                    active = [h for h in active_consts if _dot(h, w) == 0]
                    if _rank_of_vectors(active, ambient) == ambient - lin_dim - 1:
                        kept.append(w)
                rays = _dedupe(plus + zero + kept)
        processed.append(g)

    return rays, lin


def _canonical_lattice_basis(vectors: Sequence[Vec], ambient: int) -> List[Vec]:
    if not vectors:
        return []
    h = hermite_column_basis(IntMatrix._from_columns(vectors, ambient))
    return list(h.columns())


def _saturated_lattice_basis(vectors: Sequence[Vec], ambient: int) -> List[Vec]:
    if not vectors:
        return []
    return list(saturate(IntMatrix._from_columns(vectors, ambient)).columns())


def _dedupe(vectors: Iterable[Vec]) -> List[Vec]:
    seen = set()
    out = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


class Cone(_Value):
    """A rational polyhedral cone in canonical form.

    The hash of the V-data is computed once, when the cone is built, and
    kept: every fan keys its data, cofaces and offsets by cone.  The
    H-description, dimension and span lattice are derived on first use and
    kept; each is a function of the V-data, so a racing writer stores an
    equal value and no lock is needed.
    """

    __slots__ = ("ambient_rank", "rays", "lineality", "_h", "_dim", "_span", "_hash")

    def __init__(self, ambient_rank, rays, lineality, _h=None, _dim=None):
        """Canonical V-data; _h is the (facets, equations) pair and _dim the
        dimension when the caller already knows them, otherwise they are
        derived on first use."""
        rays, lineality = tuple(rays), tuple(lineality)
        _set_ambient_rank(self, ambient_rank)
        _set_rays(self, rays)
        _set_lineality(self, lineality)
        _set_h(self, _h)
        _set_dim(self, _dim)
        _set_span(self, None)
        _set_hash(self, hash((ambient_rank, rays, lineality)))

    @property
    def facets(self) -> Tuple[Vec, ...]:
        """Canonical facet inequalities, reduced modulo the span equations."""
        return self._h_data()[0]

    @property
    def equations(self) -> Tuple[Vec, ...]:
        """Canonical basis of the equations of the linear span."""
        return self._h_data()[1]

    def _h_data(self) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
        h = self._h
        if h is None:
            h = _derive_h(self)
            _set_h(self, h)
        return h

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_generators(generators: Iterable[Sequence[int]], ambient_rank: int) -> "Cone":
        """The cone spanned by the generators.

        A simplicial cone is its rays: when the primitive generators are
        linearly independent they are its rays, and it is built with no
        double description (DD).  Its faces are the cones on subsets of its
        rays, and its H-description, when read, comes from one row echelon
        form of its rays.  Any other cone takes its H-description from one DD
        here and keeps the generators that are extremal; the DD serves only
        such cones and cones given by constraints.  No ray, or one, is
        independent with no rank test.
        """
        gens = [_int_vector(g) for g in generators]
        for g in gens:
            if len(g) != ambient_rank:
                raise DimensionMismatch("generator has wrong length")
        rays = _dedupe(primitive_vector(g) for g in gens if any(g))
        if len(rays) <= 1 or _rank_of_vectors(rays, ambient_rank) == len(rays):
            return Cone(ambient_rank, sorted(rays), (), _dim=len(rays))
        h = _h_description(rays, ambient_rank)
        facets, equations = h
        # lineality of the primal: common kernel of facets and equations
        lin_mat = kernel_basis(IntMatrix._make(facets + equations, ambient_rank))
        lineality = _canonical_lattice_basis(list(lin_mat.columns()), ambient_rank)
        rays = _canonical_rays(rays, facets, equations, lineality, ambient_rank)
        return Cone(ambient_rank, rays, lineality, h)

    @staticmethod
    def from_halfspaces(
        inequalities: Iterable[Sequence[int]],
        equations: Iterable[Sequence[int]],
        ambient_rank: int,
    ) -> "Cone":
        """The cone {x : <g, x> >= 0, <e, x> = 0}, canonicalised straight from
        one double description: its rays are extremal, so reducing them modulo
        the saturated lineality gives the canonical V-data."""
        constraints = [_int_vector(v) for v in inequalities]
        for v in equations:
            e = _int_vector(v)
            constraints += [e, tuple(-x for x in e)]
        rays, lin = _halfspace_intersection(ambient_rank, constraints)
        lineality = _saturated_lattice_basis(lin, ambient_rank)
        return Cone(ambient_rank, _reduce_mod_lattice(rays, lineality, ambient_rank), lineality)

    @staticmethod
    def zero(ambient_rank: int) -> "Cone":
        return Cone.from_generators([], ambient_rank)

    @staticmethod
    def full(ambient_rank: int) -> "Cone":
        basis = [tuple(1 if j == i else 0 for j in range(ambient_rank)) for i in range(ambient_rank)]
        return Cone.from_generators(basis + [tuple(-x for x in b) for b in basis], ambient_rank)

    @staticmethod
    def ray(vector: Sequence[int]) -> "Cone":
        return Cone.from_generators([vector], len(vector))

    # -- basic predicates -------------------------------------------------

    def dim(self) -> int:
        if self._dim is None:
            rank = _rank_of_vectors(list(self.rays) + list(self.lineality), self.ambient_rank)
            _set_dim(self, rank)
        return self._dim

    def is_sharp(self) -> bool:
        return not self.lineality

    def is_zero(self) -> bool:
        return not self.rays and not self.lineality

    def is_simplicial(self) -> bool:
        return self.is_sharp() and len(self.rays) == self.dim()

    def generators(self) -> List[Vec]:
        return list(self.rays) + list(self.lineality) + [
            tuple(-x for x in l) for l in self.lineality
        ]

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.lineality:
            return f"Cone(rays={list(self.rays)}, lineality={list(self.lineality)})"
        return f"Cone(rays={list(self.rays)})"

    # -- membership ------------------------------------------------------

    def contains_point(self, vector: Sequence) -> bool:
        """Whether the point satisfies every span equation, then every facet
        inequality: one pass over the H-description, which stops at the
        first that fails."""
        if len(vector) != self.ambient_rank:
            raise DimensionMismatch("point has wrong length")
        facets, equations = self._h_data()
        for e in equations:
            if _dot(e, vector) != 0:
                return False
        for h in facets:
            if _dot(h, vector) < 0:
                return False
        return True

    def classify_point(self, vector: Sequence):
        """Classify a rational point: ('outside', None), ('interior', None),
        or ('boundary', face) with the unique face holding it in its relative
        interior."""
        if len(vector) != self.ambient_rank:
            raise DimensionMismatch("point has wrong length")
        if not self.contains_point(vector):
            return ("outside", None)
        active = [h for h in self.facets if _dot(h, vector) == 0]
        if not active:
            return ("interior", None)
        return ("boundary", self._face(active))

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains_point(g) for g in other.generators())

    def relative_interior_point(self) -> Vec:
        """An integer point in the relative interior (the sum of the rays)."""
        if not self.rays:
            return (0,) * self.ambient_rank
        return tuple(sum(r[i] for r in self.rays) for i in range(self.ambient_rank))

    # -- structure ---------------------------------------------------------

    def dual(self) -> "Cone":
        gens = list(self.facets) + list(self.equations) + [
            tuple(-x for x in e) for e in self.equations
        ]
        return Cone.from_generators(gens, self.ambient_rank)

    def _face(self, hyperplanes: Sequence[Vec]) -> "Cone":
        """The face cut out by valid inequalities vanishing on the lineality.

        This cone's rays on which they all vanish, with this cone's
        lineality, are already canonical: the face has the same lineality
        lattice and complement, and a subset of sorted rays stays sorted.
        """
        rays = [r for r in self.rays if all(_dot(h, r) == 0 for h in hyperplanes)]
        return Cone(self.ambient_rank, rays, self.lineality)

    def faces(self) -> List["Cone"]:
        """All faces, including {0}-or-lineality and the cone itself, ordered
        by dimension then lexicographically by rays; built on each call."""
        if self.is_simplicial():
            # the cones on the subsets of the sorted rays, already in
            # (dimension, rays) order
            return [
                Cone(self.ambient_rank, sub, (), _dim=k)
                for k in range(self.dim() + 1)
                for sub in itertools.combinations(self.rays, k)
            ]
        found = {self}
        frontier = [self]
        while frontier:
            new = []
            for face in frontier:
                for h in self.facets:
                    child = face._face([h])
                    if child not in found:
                        found.add(child)
                        new.append(child)
            frontier = new
        return sorted(found, key=lambda c: (c.dim(), c.rays))

    def facet_cones(self) -> List["Cone"]:
        """The faces of codimension one, sorted by rays, as in faces().

        A simplicial cone's facets are the cones on its rays minus one,
        which the combinations of its sorted rays list in order, with no
        H-description.  Any other cone has one facet per facet inequality,
        cut out by _face: distinct canonical inequalities of a cone cut out
        distinct facets.
        """
        if self.is_simplicial():
            k = len(self.rays)
            return [
                Cone(self.ambient_rank, sub, (), _dim=k - 1)
                for sub in itertools.combinations(self.rays, k - 1)
            ] if k else []
        return sorted((self._face([h]) for h in self.facets), key=lambda c: c.rays)

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient_rank != other.ambient_rank:
            raise DimensionMismatch("ambient ranks differ")
        return Cone.from_halfspaces(
            list(self.facets) + list(other.facets),
            list(self.equations) + list(other.equations),
            self.ambient_rank,
        )

    def is_face_of(self, other: "Cone") -> bool:
        """Supporting-hyperplane face test: self is the smallest face of
        other containing it, cut out by the facets of other vanishing on it."""
        if self == other:
            return True
        if not other.contains_cone(self):
            return False
        gens = self.generators()
        active = [h for h in other.facets if all(_dot(h, g) == 0 for g in gens)]
        return other._face(active) == self

    def span_lattice_basis(self) -> IntMatrix:
        """Saturated basis of Span(cone) cap Z^r (Hermite-canonical columns),
        derived on first use and cached like the H-description.

        Two cases have closed forms, which are what saturate returns: a
        full-dimensional cone spans Z^r, whose Hermite basis is the identity;
        a sharp cone on one ray spans the line of its primitive ray, whose
        Hermite basis is that ray with its first nonzero entry positive.
        Otherwise, when the generators are a basis of a saturated lattice
        (is_saturated), that lattice is Span(cone) cap Z^r, and only its
        Hermite basis is taken; else saturate runs.
        """
        if self._span is None:
            gens = list(self.rays) + list(self.lineality)
            if not gens:
                span = IntMatrix.zero(self.ambient_rank, 0)
            elif len(self.rays) == 1 and not self.lineality:
                ray = self.rays[0]
                if ray[_first_nonzero(ray)] < 0:
                    ray = tuple(-x for x in ray)
                span = IntMatrix._from_columns([ray], self.ambient_rank)
            elif self.dim() == self.ambient_rank:
                span = _identity(self.ambient_rank)
            else:
                m = IntMatrix._from_columns(gens, self.ambient_rank)
                span = hermite_column_basis(m) if is_saturated(m) else saturate(m)
            _set_span(self, span)
        return self._span

    def linear_image(self, matrix: IntMatrix) -> "Cone":
        """Image cone under an integer linear map (matrix acts on columns)."""
        if matrix.cols != self.ambient_rank:
            raise DimensionMismatch("matrix does not act on this ambient space")
        return Cone.from_generators(
            [matrix.apply(g) for g in self.generators()], matrix.rows
        )

    def preimage(self, matrix: IntMatrix) -> "Cone":
        """Preimage cone under an integer linear map into this ambient space.

        Composing a functional h with the map: h(Mx) = (M^T h)(x).
        """
        if matrix.rows != self.ambient_rank:
            raise DimensionMismatch("matrix does not map into this ambient space")
        mt = matrix.transpose()
        ineqs = [mt.apply(h) for h in self.facets]
        eqs = [mt.apply(e) for e in self.equations]
        return Cone.from_halfspaces(ineqs, eqs, matrix.cols)


# the identity of each rank, built on first use and shared by the cones
_identity = lru_cache(maxsize=None)(IntMatrix.identity)

# slot setters, bound once (see intlinalg._Value)
_set_ambient_rank = Cone.ambient_rank.__set__
_set_rays = Cone.rays.__set__
_set_lineality = Cone.lineality.__set__
_set_h = Cone._h.__set__
_set_dim = Cone._dim.__set__
_set_span = Cone._span.__set__
_set_hash = Cone._hash.__set__


def _derive_h(cone: Cone) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
    """The canonical (facets, equations) of a cone: the entry point of every
    H-description a cone derives when it is first read."""
    if cone.is_simplicial():
        return _simplicial_h_description(cone.rays, cone.ambient_rank)
    return _h_description(cone.generators(), cone.ambient_rank)


def _simplicial_h_description(rays: Sequence[Vec], ambient: int) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
    """Canonical (facets, equations) of the cone on linearly independent rays,
    from one row echelon form T R = [E; 0] of the ambient x k ray matrix R.

    T is unimodular, so its rows past k are a basis of the saturated lattice
    of functionals vanishing on R, the equations: their Hermite basis is
    canonical with no saturation.  E is k x k upper triangular with positive
    diagonal, and the columns of adj(E) = det(E) E^-1 come from back
    substitution.  Facet i is row i of adj(E) times the first k rows of T:
    on R it is row i of adj(E) E = det(E) I, so it vanishes on every ray but
    the i-th, where it is positive.  Both go through the same
    canonicalisation as the double description's output.
    """
    k = len(rays)
    echelon, t = _row_echelon(_transposed(rays, ambient), transform=True)
    kernel = t.entries[k:]
    equations = hermite_column_basis(IntMatrix._from_columns(kernel, ambient)).columns() if kernel else ()
    det = prod(row[i] for i, row in enumerate(echelon))
    adj = [_back_substitute(echelon, [det if i == j else 0 for i in range(k)], exact=True) for j in range(k)]
    facets = (IntMatrix._from_columns(adj, k) @ t.select_rows(range(k))).entries
    return tuple(_reduce_mod_lattice(facets, equations, ambient)), equations


def _h_description(gens: Sequence[Vec], ambient: int) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
    """Canonical (facets, equations) of cone(gens), from the dual cone's
    double description.  The equations are a basis of the saturated lattice
    orthogonal to the span, so neither part depends on the generators given."""
    dual_rays, dual_lin = _halfspace_intersection(ambient, gens)
    equations = _saturated_lattice_basis(dual_lin, ambient)
    facets = _reduce_mod_lattice(dual_rays, equations, ambient)
    return tuple(facets), tuple(equations)


def _canonical_rays(
    gens: Sequence[Vec],
    facets: Sequence[Vec],
    equations: Sequence[Vec],
    lineality: Sequence[Vec],
    ambient: int,
) -> List[Vec]:
    """Canonical primitive extremal-ray representatives of cone(gens)+lin:
    the extremal generators, reduced modulo the lineality."""
    target_rank = ambient - len(lineality) - 1
    constraints = list(facets) + list(equations)
    extremal = [
        g for g in gens
        if _rank_of_vectors([h for h in constraints if _dot(h, g) == 0], ambient) == target_rank
    ]
    return _reduce_mod_lattice(extremal, lineality, ambient)


def _reduce_mod_lattice(vectors: Sequence[Vec], lattice: Sequence[Vec], ambient: int) -> List[Vec]:
    """Canonical sorted representatives of rays modulo a saturated lattice."""
    if not lattice:
        return sorted(_dedupe([primitive_vector(v) for v in vectors]))
    comp = _complement_projector(lattice, ambient)
    out = []
    for v in vectors:
        rep = comp(v)
        if any(rep):
            out.append(rep)
    return sorted(_dedupe(out))


def _complement_projector(lineality: Sequence[Vec], ambient: int):
    """Project onto a canonical complement of the saturated, nonzero lineality.

    Returns a function mapping an integer vector to the primitive generator of
    its class modulo the lineality, embedded back via the complement basis.
    The lineality L is saturated, so Z^ambient / L is free: its presentation's
    projection reads the coordinates of a class, and its section spans the
    complement: U L V = [I; 0], and past the rank the section is the columns
    of U^{-1} and the projection the rows of U.
    """
    pres = present_quotient(ambient, IntMatrix._from_columns(lineality, ambient))

    def project(v: Vec) -> Vec:
        return pres.section.apply(primitive_vector(pres.proj.apply(v)))

    return project


def _separating_facet(a: Cone, b: Cone) -> Optional[Vec]:
    """A facet h of one cone with h <= 0 on every generator of the other,
    or None.

    Such an h is >= 0 on its own cone and <= 0 on the other, so it confines
    a cap b to the hyperplane h = 0; and h > 0 on the relative interior of
    its own cone, which the other cone therefore misses.  Only dot products
    with cached facets are taken, no double description.
    """
    for own, other in ((a, b), (b, a)):
        gens = other.generators()
        for h in own.facets:
            if all(_dot(h, g) <= 0 for g in gens):
                return h
    return None


def _preimage_rays(m: IntMatrix, rays: Iterable[Vec]) -> List[Vec]:
    """The primitive rays x with m x on the ray of r, for each ray r in the
    image of the injective lattice map m."""
    system = LinearSystem(m)
    out = []
    for r in rays:
        x = system.ray(r)
        if x is None:
            raise KmFanError(f"internal: ray {r!r} not in the image")
        out.append(x)
    return out


def union_covers(target: Cone, pieces: Sequence[Cone]) -> bool:
    """Whether the pieces cover the target exactly, as point sets.

    The pieces must be contained in the target.  The target is cut along
    every facet hyperplane of the target and the pieces; each resulting cell
    of full dimension (relative to the target) is decided by one relative
    interior point, which no piece boundary can separate from the rest of
    the cell.
    """
    for p in pieces:
        if p.ambient_rank != target.ambient_rank:
            raise DimensionMismatch("ambient ranks differ")
        if not target.contains_cone(p):
            raise PieceOutsideTarget(f"piece {p!r} is not contained in the target")
    target_dim = target.dim()
    if target_dim == 0:
        # the zero cone is covered iff there is at least one piece (each
        # piece is then the zero cone itself)
        return bool(pieces)

    hyperplanes = []
    seen = set()
    for cone in [target, *pieces]:
        for h in cone.facets:
            hn = primitive_vector(h)
            if hn and hn[_first_nonzero(hn)] < 0:
                hn = tuple(-x for x in hn)
            if hn in seen:
                continue
            seen.add(hn)
            # skip hyperplanes containing the whole target
            if all(_dot(hn, g) == 0 for g in target.generators()):
                continue
            hyperplanes.append(hn)

    cells = [target]
    for h in hyperplanes:
        nxt = []
        minus_h = tuple(-x for x in h)
        for cell in cells:
            vals = [_dot(h, g) for g in cell.generators()]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                nxt.append(cell)
                continue
            for side in (h, minus_h):
                piece = Cone.from_halfspaces(
                    list(cell.facets) + [side], list(cell.equations), cell.ambient_rank
                )
                if piece.dim() == target_dim:
                    nxt.append(piece)
        cells = nxt

    for cell in cells:
        point = cell.relative_interior_point()
        if not any(p.contains_point(point) for p in pieces):
            return False
    return True


def _first_nonzero(v: Vec) -> int:
    for i, x in enumerate(v):
        if x:
            return i
    return -1
