"""KM fans: validation, constructions, morphism classification, invariants.

A KM fan is a triple (N, F, {F_sigma}): a finitely generated abelian group N,
a fan F of sharp cones in the free quotient of N, and a compatible lattice
datum F_sigma (a finite-index lattice inside Span(sigma) cap N) for every
cone.  Cones live in coordinates of Z^r = N / N_tor; lattice data are
subgroups of N given in full coordinates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    _cokernel_group,
    _quotient_group,
    _quotient_presentation,
    dd_of_hom,
    direct_sum,
    dual_group,
    ext_group,
    free_quotient,
    is_injective,
    kernel_and_cokernel,
    kernel_subgroup,
    present_quotient,
    preimage_subgroup,
    quotient,
)
from .cones import Cone, _preimage_rays, _separating_facet, union_covers
from .errors import (
    ConeNotInFan,
    InfiniteCokernel,
    InvalidFan,
    KmFanError,
    NotFiniteIndex,
    NotSimplicial,
    NotSmooth,
    NotTame,
    PreconditionsFail,
    TorsionAmbient,
)
from .intlinalg import (
    IntMatrix,
    LinearSystem,
    Vec,
    _determinant,
    hermite_column_basis,
    is_saturated,
    primitive_vector,
    rank as matrix_rank,
)
from .monoids import AffineMonoid, is_free_monoid


class LatticeDatum:
    """A finite-index lattice inside Span(sigma) cap N, attached to a cone."""

    __slots__ = ("ambient", "subgroup", "_basis")

    def __init__(self, ambient: FgaGroup, subgroup: Subgroup):
        if subgroup.ambient != ambient:
            raise KmFanError("datum subgroup lives in the wrong group")
        _set_datum_ambient(self, ambient)
        _set_subgroup(self, subgroup)
        _set_basis(self, None)

    def __setattr__(self, *args):
        raise AttributeError("LatticeDatum is immutable")

    def __delattr__(self, *args):
        raise AttributeError("LatticeDatum is immutable")

    @staticmethod
    def from_generators(ambient: FgaGroup, generators: Iterable[Sequence[int]]) -> "LatticeDatum":
        return LatticeDatum(ambient, Subgroup.from_generators(ambient, generators))

    def _image(self, hom: GroupHom) -> "LatticeDatum":
        """The subgroup of hom's target that the images of this datum's
        generators generate."""
        return LatticeDatum.from_generators(hom.target, map(hom.apply, self.generators()))

    def basis(self) -> IntMatrix:
        basis = self._basis
        if basis is None:
            basis = self.subgroup.lattice_basis()
            _set_basis(self, basis)
        return basis

    def generators(self) -> List[Vec]:
        return list(self.basis().columns())

    def free_basis(self) -> IntMatrix:
        return self.basis().select_rows(range(self.ambient.free_rank))

    def rank(self) -> int:
        return self.basis().cols

    def coordinate_matrix(self, vectors: Iterable[Sequence[int]]) -> Optional[IntMatrix]:
        """The coordinates of the elements in basis(), as the columns of a
        matrix, or None when one is outside the datum.  The subgroup's
        preimage basis is basis() | relations (Subgroup), so one batched
        solve serves them all; the relation coefficients are dropped."""
        x, k = self.subgroup._solve(vectors), self.rank()
        return x if x is None or x.rows == k else x.select_rows(range(k))

    def coordinates(self, vector: Sequence[int]) -> Optional[Vec]:
        """coordinate_matrix of the one element, as a vector, solved on its
        own (Subgroup._solve_one)."""
        x, k = self.subgroup._solve_one(vector), self.rank()
        return None if x is None else x[:k]

    def contains(self, vector: Sequence[int]) -> bool:
        return self.coordinates(vector) is not None

    def violations(self, cone: Cone) -> List[str]:
        """Why this is not a valid lattice datum for the cone, if it is not.

        A torsion-free datum meets N_tor in 0, so the free projections of
        its basis are independent.  The rays span Span(cone) over Q, so the
        rank and the span membership are read off them: the datum lies in
        the span when rays and free basis together have rank dim(cone).
        """
        out = []
        if not self.subgroup.is_lattice():
            out.append("generated subgroup is not torsion-free")
            return out
        dim = cone.dim()
        if self.rank() != dim:
            out.append("datum rank differs from the cone dimension")
            return out
        rays = IntMatrix._from_columns(cone.rays + cone.lineality, cone.ambient_rank)
        if matrix_rank(rays.hstack(self.free_basis())) != dim:
            out.append("datum does not lie in the span of the cone")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LatticeDatum)
            and self.ambient == other.ambient
            and self.subgroup == other.subgroup
        )

    def __hash__(self):
        return hash((self.ambient, self.subgroup))

    def __repr__(self):
        return f"LatticeDatum({self.generators()})"


class KmFan:
    """A KM fan (N, F, {F_sigma}) in canonical form.

    The constructor validates and raises InvalidFan.  Constructions that
    start from a valid fan build theirs with KmFan._make: the same canonical
    sort, no validation.

    The face index, filled on first use, holds the maximal cones and, once
    validate has run, its whole verdict: (maximal, problems or None).  A
    construction that proved its fan valid hands both over through _make,
    so the fan's validate() runs no phase at all.  Like the caches of a
    Cone the index is idempotent, so it is written without a lock: a racing
    writer stores the same cones and verdict.
    """

    __slots__ = ("group", "cones", "data", "_index")

    def __init__(self, group: FgaGroup, cones: Iterable[Cone], data: Dict[Cone, LatticeDatum]):
        _fill(self, group, cones, data)
        problems = self.validate()
        if problems:
            raise InvalidFan(problems)

    @staticmethod
    def _make(group: FgaGroup, cones: Iterable[Cone], data: Dict[Cone, LatticeDatum],
              maximal: Optional[Sequence[Cone]] = None) -> "KmFan":
        """Trusted constructor: the caller guarantees a valid fan.

        A caller that proved the fan valid, both phases (the cone set and
        the lattice data), passes its maximal cones, in fan order; the fan
        keeps them with the empty verdict in its face index, and its
        validate() runs nothing.
        """
        fan = _fill(object.__new__(KmFan), group, cones, data)
        if maximal is not None:
            _set_index(fan, (tuple(maximal), ()))
        return fan

    def __setattr__(self, *args):
        raise AttributeError("KmFan is immutable")

    def __delattr__(self, *args):
        raise AttributeError("KmFan is immutable")

    def validate(self) -> List[dict]:
        """Structured list of violations; empty when the fan is valid.

        Two phases, the second only when the first finds nothing: the cone
        set (_cone_violations), then the lattice data and their
        compatibility (_datum_violations).  Every facet of every cone is
        built once, for the maximal cones and the closure check both.  The
        whole verdict is kept in the face index, so the phases run at most
        once per fan; each call returns a fresh copy of it.
        """
        index = self._index
        if index is None or index[1] is None:
            facets = _facet_set(self.cones)
            maximal = index[0] if index else tuple(_maximal_cones(self.cones, facets))
            problems = (_cone_violations(self.group.free_rank, self.cones, maximal, facets)
                        or self._datum_violations())
            index = (maximal, tuple(problems))
            _set_index(self, index)
        return [dict(p) for p in index[1]]

    def _datum_violations(self) -> List[dict]:
        """The data phase of validate, run on a valid cone set.

        The compatibility loop skips tau = {0} and tau = sigma, the first and
        last of sigma.faces(): both hold for every datum that passed
        LatticeDatum.violations.  Span(sigma) cap F_sigma = F_sigma, as F_sigma
        lies in the span; and Span({0}) cap F_sigma is the part of F_sigma
        with zero free projection, which is 0 as the free projections of its
        basis are independent, while F_{0} is a lattice of rank dim {0} = 0.

        A pair is checked as F_tau saturated in F_sigma (_saturated_in,
        which carries the proof that this is F_tau = Span(tau) cap F_sigma
        for data that passed LatticeDatum.violations).

        Only the covering pairs, tau a facet of sigma, are checked, and
        when they all hold so does every pair.  If tau < rho < sigma, then
        Span(tau) cap F_sigma = Span(tau) cap (Span(rho) cap F_sigma) =
        Span(tau) cap F_rho, as Span(tau) lies in Span(rho); and the face
        lattice of a cone is graded (Ziegler, Lectures on Polytopes, Ch. 2),
        so every face tau of sigma ends a chain of covering pairs from sigma,
        through cones of the fan, which is closed under faces.  The report
        names the covering pairs that fail, in fan order.

        Classical data are read per cone.  On a lattice N a datum stores the
        Hermite basis of itself as its preimage, and c.span_lattice_basis()
        is the Hermite basis of Span(c) cap N; Hermite bases are canonical,
        so the two are equal exactly when F_c = Span(c) cap N.  Such a datum
        is valid: it is torsion-free, as N is, of rank dim c, in the span;
        so LatticeDatum.violations is skipped.  For a covering pair with
        classical F_sigma, Span(tau) cap F_sigma = Span(tau) cap Span(sigma)
        cap N = Span(tau) cap N, as Span(tau) lies in Span(sigma): the pair
        holds exactly when F_tau is classical too.  Every other pair keeps
        _saturated_in.
        """
        out: List[dict] = []
        lattice = self.group.is_lattice()
        classical = set()
        for c in self.cones:
            datum = self.data.get(c)
            if datum is None:
                out.append({"kind": "missing-datum", "detail": f"no lattice datum for {c!r}"})
                continue
            if datum.ambient != self.group:
                out.append({"kind": "wrong-datum-group", "detail": f"datum for {c!r} lives in the wrong group"})
                continue
            if lattice and datum.subgroup.preimage == c.span_lattice_basis():
                classical.add(c)
                continue
            for v in datum.violations(c):
                out.append({"kind": "invalid-datum", "detail": f"{c!r}: {v}"})
        if out:
            return out
        data = self.data
        for sigma in self.cones:
            if sigma.dim() > 1:
                for tau in sigma.facet_cones():
                    holds = (tau in classical) if sigma in classical else _saturated_in(data[sigma], data[tau])
                    if not holds:
                        out.append({
                            "kind": "incompatible-data",
                            "detail": f"datum of face {tau!r} is not Span(face) cap datum of {sigma!r}",
                        })
        return out

    # -- accessors ---------------------------------------------------------

    def datum(self, cone: Cone) -> LatticeDatum:
        if cone not in self.data:
            raise ConeNotInFan(f"{cone!r} is not a cone of this fan")
        return self.data[cone]

    def zero_cone(self) -> Cone:
        return Cone.zero(self.group.free_rank)

    def ray_cones(self) -> List[Cone]:
        return [c for c in self.cones if c.dim() == 1]

    def maximal_cones(self) -> List[Cone]:
        """The cones that are no facet of another (_maximal_cones), kept in
        the face index."""
        if self._index is None:
            _set_index(self, (tuple(_maximal_cones(self.cones)), None))
        return list(self._index[0])

    def __eq__(self, other):
        return (
            isinstance(other, KmFan)
            and self.group == other.group
            and self.cones == other.cones
            and all(self.data[c] == other.data[c] for c in self.cones)
        )

    def __hash__(self):
        return hash((self.group, self.cones, tuple(self.data[c] for c in self.cones)))

    def __repr__(self):
        return f"KmFan(group={self.group!r}, ncones={len(self.cones)})"


# slot setters, bound once (see intlinalg._set_rows)
_set_datum_ambient = LatticeDatum.ambient.__set__
_set_subgroup = LatticeDatum.subgroup.__set__
_set_basis = LatticeDatum._basis.__set__
_set_group = KmFan.group.__set__
_set_cones = KmFan.cones.__set__
_set_data = KmFan.data.__set__
_set_index = KmFan._index.__set__


def _fan_order(c: Cone) -> Tuple[int, Tuple[Vec, ...]]:
    """The sort key of a fan's cones: dimension, then rays."""
    return (c.dim(), c.rays)


def _canonical(cones: Iterable[Cone]) -> Tuple[Cone, ...]:
    return tuple(sorted(set(cones), key=_fan_order))


def _fill(fan: KmFan, group: FgaGroup, cones: Iterable[Cone], data: Dict[Cone, LatticeDatum]) -> KmFan:
    _set_group(fan, group)
    _set_cones(fan, _canonical(cones))
    _set_data(fan, dict(data))
    _set_index(fan, None)
    return fan


def _cone_violations(r: int, cones: Sequence[Cone], maximal: Sequence[Cone],
                     facets: Optional[set] = None) -> List[dict]:
    """The cone-set phase of validation, over cones in canonical order,
    given the cones that are no facet of another (_maximal_cones) and,
    optionally, the set of their facets (_facet_set).

    Each step runs only when the earlier ones found nothing: the ambient
    rank; sharpness and closure under faces; the pairwise check.  Closure
    is checked on facets: when every facet of every cone is in the set,
    so is every face, as a face of a cone ends a chain of facets from it
    (the face lattice is graded: Ziegler, Lectures on Polytopes, Ch. 2);
    so a missing-face entry names a missing facet.  The cones are closed
    exactly when the facet set lies in the cone set; only when it does not
    are the facets built again, cone by cone, for the report.

    In rank r <= 1 the pairwise check is skipped: every pair meets in a
    common face.  Proof.  A sharp cone of R^0 is {0}, and a sharp cone of R^1
    is {0}, R>=0 or R<=0.  Two distinct ones meet in {0}, a face of both,
    and in the set: one of the two is a ray, and the closure step has put
    its facet {0} in the set.  The ambient, sharpness and closure steps
    still run first, so a set they reject gets the same report.  Before
    the pairwise check, a complete simplicial fan is certified valid
    without it (_certified_complete_simplicial, which carries the proof);
    when the certificate cannot decide, the pairwise check runs.  The
    pairwise check runs over maximal cones only, so its bad-intersection
    entries name maximal cones.  That suffices: if the cones are closed
    under faces and maximal cones S, T meet in a common face F, then faces
    s of S and t of T meet in the face (s cap F) cap (t cap F) of F, a face
    of both s and t.

    A pair is settled by descent, mostly with dot products alone.  A facet
    h of one cone with h <= 0 on the other (cones._separating_facet) is a
    valid inequality on both, up to sign, so a cap b = a' cap b' for the
    faces a' = a cap h-perp and b' = b cap h-perp, which are cones of the
    fan (taken as the fan's own instances, whose facets are cached).  A
    face of a' or b' is a face of a or b, since a face of a face is a face;
    and a face of a contained in a' is a face of a'.  So a and b meet in a
    common face iff a' and b' do, and the pair (a, b) is replaced by
    (a', b'), which loses at least one dimension.  The descent stops when
    one of the two is a face of the other, which is then their meet, or
    when no facet separates them; the face set of a cone is built when a
    pair first reaches it.  Only then, as in dimension 3 and up a
    separating hyperplane need not be a facet of either cone, one double
    description intersects the pair and the meet is tested directly.
    """
    out: List[dict] = []
    cone_set = set(cones)
    if not cones:
        out.append({"kind": "empty-fan", "detail": "a fan must contain at least one cone"})
        return out
    for c in cones:
        if c.ambient_rank != r:
            out.append({"kind": "wrong-ambient", "detail": f"cone {c!r} has ambient rank {c.ambient_rank}, expected {r}"})
            return out
        if not c.is_sharp():
            out.append({"kind": "non-sharp-cone", "detail": f"cone {c!r} contains a line"})
    if not (_facet_set(cones) if facets is None else facets) <= cone_set:
        for c in cones:
            for f in c.facet_cones():
                if f not in cone_set:
                    out.append({"kind": "missing-face", "detail": f"face {f!r} of {c!r} is not in the fan"})
    if out or r <= 1:
        return out
    if _certified_complete_simplicial(r, maximal):
        return out
    instances = {c: c for c in cones}
    faces: Dict[Cone, set] = {}

    def face_set(c: Cone) -> set:
        if c not in faces:
            faces[c] = set(c.faces())
        return faces[c]

    def meet_in_common_face(a: Cone, b: Cone) -> bool:
        while a not in face_set(b) and b not in face_set(a):
            h = _separating_facet(a, b)
            if h is None:
                meet = a.intersect(b)
                return meet in cone_set and meet.is_face_of(a) and meet.is_face_of(b)
            a, b = instances[a._face([h])], instances[b._face([h])]
        return True

    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            if not meet_in_common_face(a, b):
                out.append({
                    "kind": "bad-intersection",
                    "detail": f"{a!r} and {b!r} do not intersect in a common face",
                })
    return out


def _certified_complete_simplicial(r: int, maximal: Sequence[Cone]) -> bool:
    """Whether the maximal cones of a set of sharp cones closed under faces
    are certified to meet pairwise in common faces (the fan is then complete
    and simplicial); False means "cannot decide", never "invalid".

    The certificate applies when r >= 2 and every maximal cone is simplicial
    with r rays.  It checks, with r x r integer determinants only and no
    H-description:
      (a) every facet, keyed by its r - 1 rays, lies in exactly two maximal
          cones;
      (b) the apex rays of those two cones lie strictly on opposite sides
          of it;
      (c) the point p, the sum of the rays of the first maximal cone, lies
          in exactly one maximal cone.
    This is the pseudo-manifold characterization of triangulations (De
    Loera, Rambau and Santos, Triangulations, Ch. 4), for cones.

    The determinants.  Let F be the facet's rays, in key order, and
    det(F, x) the determinant with rows F and x.  It is linear in x and
    vanishes on Span(F), a hyperplane, as F is independent; it is nonzero
    on the apex a of a cone with facet F, as that cone is simplicial of
    dimension r.  So det(F, .) is a nonzero multiple of the facet normal
    opposite a, and (b) reads det(F, a) det(F, b) < 0 for the apexes a, b
    of the two cones.  For (c), a simplicial cone with ray rows R_1..R_r
    holds p exactly when p = sum l_i R_i with every l_i >= 0, and by
    Cramer's rule l_i = det(R with row i replaced by p) / det(R): so
    exactly when det(R) det(R with row i replaced by p) >= 0 for every i.

    Proof.  Call a point generic when it lies on no facet, and let c(x)
    count the maximal cones holding x.  Crossing a facet hyperplane at a
    point y on no cone of dimension <= r - 2 keeps c: y lies in the
    relative interior of every facet through it, and by (a) and (b) each
    such facet is left by one cone and entered by one other.  Removing the
    cones of dimension <= r - 2 leaves R^r connected, as r >= 2, so c is
    one constant k on generic points.  Generic points near p lie in the
    first cone, so k >= 1, and each lies in k cones, which are closed, so
    p lies in at least k: by (c), k = 1.  So the maximal cones cover R^r
    and their interiors are disjoint.

    The same argument runs in the link of each face F of a maximal cone
    sigma.  Project the maximal cones containing F to R^r / Span(F): the
    images are simplicial cones of full dimension, and (a) and (b) hold
    for them, as the partner of a facet containing F contains F, and the
    facet hyperplane contains Span(F).  For x in the relative interior of F
    and small v, such a cone holds x + v iff its image holds the image of
    v, so the images cover a generic point at most once (k = 1), hence,
    by the argument above (or directly, in quotient dimension 0 or 1),
    exactly once.  So these cones cover a neighbourhood of x, and a maximal
    cone tau holding x without F as a face would overlap one of their
    interiors.  Hence, for every x in sigma cap tau, the minimal face of
    sigma holding x is the minimal face of tau holding x.  Taking x in the
    relative interior of the convex set sigma cap tau, that common face
    contains sigma cap tau and lies in it.
    """
    if r < 2 or any(len(c.rays) != r or c.dim() != r for c in maximal):
        return False
    sides: Dict[Tuple[Vec, ...], List[Vec]] = {}
    for c in maximal:
        for i, apex in enumerate(c.rays):
            sides.setdefault(c.rays[:i] + c.rays[i + 1:], []).append(apex)
    for facet, apexes in sides.items():
        if len(apexes) != 2:
            return False
        if _determinant(facet + (apexes[0],)) * _determinant(facet + (apexes[1],)) >= 0:
            return False
    p = maximal[0].relative_interior_point()

    def holds_p(rays: Tuple[Vec, ...]) -> bool:
        d = _determinant(rays)
        return all(d * _determinant(rays[:i] + (p,) + rays[i + 1:]) >= 0 for i in range(r))

    return sum(holds_p(c.rays) for c in maximal) == 1


def _facet_set(cones: Iterable[Cone]) -> set:
    """Every facet of every cone (Cone.facet_cones)."""
    return {f for c in cones for f in c.facet_cones()}


def _maximal_cones(cones: Sequence[Cone], facets: Optional[set] = None) -> List[Cone]:
    """The cones that are no facet of another, in the given order; facets,
    when given, is their _facet_set.

    When the cones are closed under faces these are the maximal cones, the
    cones that are no proper face of another.  A facet is a proper face;
    and a proper face tau of a cone sigma in the set ends a chain of facets
    from sigma, as the face lattice of sigma is graded (Ziegler, Lectures
    on Polytopes, Ch. 2), whose members are faces of sigma and so in the
    set: tau is a facet of the last of them before it.
    """
    proper = _facet_set(cones) if facets is None else facets
    return [c for c in cones if c not in proper]


def _saturated_in(outer: LatticeDatum, inner: LatticeDatum) -> bool:
    """Whether inner lies in outer, saturated: every generator of inner has
    coordinates in outer, and they have rank(inner) invariant factors, all 1.

    For the data of cones tau < sigma that passed LatticeDatum.violations,
    this holds exactly when F_tau = Span(tau) cap F_sigma (outer F_sigma,
    inner F_tau); and for a lifting L and sigma, with outer L and inner
    F_sigma, exactly when L cap Span(sigma) = F_sigma.

    Proof.  Write tau for the cone of inner (sigma, for a lifting).  In
    both cases the free projection is injective on outer (a torsion-free L
    meets N_tor in 0), inner lies in Span(tau) with rank dim tau, and
    Span(tau) lies in the real span of the free projection of outer.  So S = Span(tau) cap outer has rank dim tau, and S is saturated
    in outer: if k x is in S for x in outer and k > 0, so is x.  If inner
    = S, inner lies in outer, saturated.  Conversely, let inner lie in
    outer, saturated.  Then inner lies in S with the same rank, so S/inner
    is a torsion subgroup of outer/inner, which is torsion-free: S = inner.
    The coordinates of a basis of inner are a basis of inner in the
    coordinates of outer, so inner is saturated in outer exactly when they
    have rank(inner) invariant factors, all 1.
    """
    coords = outer.coordinate_matrix(inner.generators())
    return coords is not None and is_saturated(coords)


def _ray_images(m: IntMatrix, fan: KmFan) -> Dict[Vec, Vec]:
    """The primitive image m r of each ray r of the fan, one product per
    ray: the rays are those of the fan's ray cones, as a fan is closed
    under faces.  A ray mapped to 0 gives the zero vector."""
    return {c.rays[0]: primitive_vector(m.apply(c.rays[0])) for c in fan.ray_cones()}


def _carried(cones: Iterable[Cone], ray: Dict[Vec, Vec], rank: int) -> Dict[Cone, Cone]:
    """Each cone carried along a linear map that is injective on its span,
    given the primitive image of each ray (ray) in Z^rank: the sharp cone on
    the sorted images of its rays, of its dimension.

    Proof.  A linear map f injective on Span(sigma) is an isomorphism of
    Span(sigma) onto Span(f(sigma)), so it carries the faces of sigma onto
    those of f(sigma), and its extremal rays onto those of f(sigma), which
    is sharp as sigma is, of dimension dim sigma.  The rays of a sharp cone
    are the primitive vectors on its extremal rays, sorted: its canonical
    V-data.  So no double description is needed.
    """
    return {c: Cone(rank, sorted(ray[r] for r in c.rays), (), _dim=c.dim()) for c in cones}


class KmFanHom:
    """A morphism of KM fans with its minimal-cone assignment sigma -> the
    minimal target cone containing f(sigma): built by the construction, or
    derived by validate_hom for a group map from outside the library.

    The tameness slot, filled on first use (_tameness), holds the semi-tame
    verdict and, for a semi-tame map, the kernel and cokernel of the group
    map.  A construction that proved its map semi-tame builds it with
    _semi_tame, which leaves True in the slot until the kernel and cokernel
    are computed.  Like KmFan's face index the slot is idempotent, so it is
    written without a lock: a racing writer stores the same verdict.
    """

    __slots__ = ("source", "target", "hom", "cone_images", "_tame")

    def __init__(self, source: KmFan, target: KmFan, hom: GroupHom, cone_images: Dict[Cone, Cone]):
        _set_source(self, source)
        _set_target(self, target)
        _set_hom(self, hom)
        _set_cone_images(self, dict(cone_images))
        _set_tame(self, None)

    @staticmethod
    def _semi_tame(source: KmFan, target: KmFan, hom: GroupHom, cone_images: Dict[Cone, Cone]) -> "KmFanHom":
        """Trusted constructor for a map its construction proved semi-tame
        (gsfans.fold): the tameness slot starts at True, so _tameness runs
        no is_semi_tame."""
        f = KmFanHom(source, target, hom, cone_images)
        _set_tame(f, True)
        return f

    def __setattr__(self, *args):
        raise AttributeError("KmFanHom is immutable")

    def __delattr__(self, *args):
        raise AttributeError("KmFanHom is immutable")

    def then(self, other: "KmFanHom") -> "KmFanHom":
        """other o self, with the composed cone map: the minimal cone
        containing g(f(sigma)) is the image of the minimal cone tau containing
        f(sigma), since relint g(C) = g(relint C) and relint f(sigma) lies in
        relint tau, so relint g(f(sigma)) lies in the relint of tau's image.
        """
        if other.source != self.target:
            raise KmFanError("fan morphisms do not compose")
        images = {sigma: other.cone_images[tau] for sigma, tau in self.cone_images.items()}
        return KmFanHom(self.source, other.target, self.hom.then(other.hom), images)

    def __repr__(self):
        return f"KmFanHom({self.source!r} -> {self.target!r})"


# slot setters, bound once (see intlinalg._set_rows)
_set_source = KmFanHom.source.__set__
_set_target = KmFanHom.target.__set__
_set_hom = KmFanHom.hom.__set__
_set_cone_images = KmFanHom.cone_images.__set__
_set_tame = KmFanHom._tame.__set__


class HomRefusal:
    """A structured reason why a group map fails to be a fan morphism."""

    __slots__ = ("cone", "reason")

    def __init__(self, cone: Cone, reason: str):
        self.cone = cone
        self.reason = reason

    def __repr__(self):
        return f"HomRefusal({self.cone!r}: {self.reason})"


def validate_hom(f: GroupHom, source: KmFan, target: KmFan):
    """Check that a group homomorphism defines a morphism of KM fans.

    Returns a KmFanHom on success, otherwise a HomRefusal naming the first
    cone where the morphism conditions fail.  Only the minimal containing
    cone needs its datum checked; compatibility transfers the condition to
    every other containing cone.  This is for maps from outside the library;
    its constructions carry their own cone maps.  Containment is read on
    the primitive ray images (_ray_images), positive multiples of the images.

    The minimal cone is the first containing cone tau in fan order, with no
    intersection.  The smallest face of tau containing f(sigma) lies in
    every other containing cone tau', since tau cap tau' is a face of tau
    containing f(sigma); so it is the minimal cone, and it is a cone of the
    fan.  The fan's cones are sorted by dimension, so a proper face of tau
    would come before tau: the smallest face is tau itself.
    """
    if f.source != source.group or f.target != target.group:
        raise KmFanError("homomorphism endpoints do not match the fans")
    ray = _ray_images(f.free_matrix(), source)
    images: Dict[Cone, Cone] = {}
    for sigma in source.cones:
        img_gens = [ray[r] for r in sigma.rays]
        minimal = next(
            (c for c in target.cones if all(c.contains_point(g) for g in img_gens)), None
        )
        if minimal is None:
            return HomRefusal(sigma, "image of the cone is not contained in any target cone")
        if target.datum(minimal).coordinate_matrix(map(f.apply, source.datum(sigma).generators())) is None:
            return HomRefusal(sigma, "lattice datum does not map into the datum of the minimal cone")
        images[sigma] = minimal
    return KmFanHom(source, target, f, images)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def zero_fan(group: FgaGroup) -> KmFan:
    """The fan whose only cone is the zero cone, with the zero datum."""
    c = Cone.zero(group.free_rank)
    return KmFan._make(group, [c], {c: LatticeDatum.from_generators(group, [])})


def zero_fan_unit(fan: KmFan) -> KmFanHom:
    """The canonical map zero_fan(N) -> F over the identity of N."""
    zero = fan.zero_cone()
    return KmFanHom(zero_fan(fan.group), fan, GroupHom.identity(fan.group), {zero: zero})


def from_classical(group: FgaGroup, cones: Iterable[Cone]) -> KmFan:
    """A classical fan as a KM fan: lattice data N_sigma = Span(sigma) cap N.

    The face closure takes the given cones in decreasing dimension and
    enumerates the faces of a cone only when it is not in the closure yet:
    a cone already there is a face of a cone taken before it, and a face
    of a face is a face, so its faces are there too.  Given the face
    lattice of a cone, that enumerates the faces of the cone alone.

    Only the cone set of the face closure is validated, and its facets
    are built once for the maximal cones and the closure check.  The data
    Span(sigma) cap N are valid and compatible by construction: each is
    torsion-free, as N is, of rank dim sigma and in the span, and for a
    face tau of sigma, Span(tau) cap (Span(sigma) cap N) = Span(tau) cap N,
    as Span(tau) lies in Span(sigma).  So the fan is handed its whole
    verdict with its maximal cones, and its validate() runs nothing.
    """
    if not group.is_lattice():
        raise TorsionAmbient("a classical fan needs a torsion-free group")
    faces = set()
    for c in sorted(cones, key=Cone.dim, reverse=True):
        if c not in faces:
            faces.update(c.faces())
    closure = _canonical(faces) or (Cone.zero(group.free_rank),)
    data = _saturated_data(group, closure)
    facets = _facet_set(closure)
    maximal = _maximal_cones(closure, facets)
    problems = _cone_violations(group.free_rank, closure, maximal, facets)
    if problems:
        raise InvalidFan(problems)
    return KmFan._make(group, closure, data, maximal)


def _saturated_data(group: FgaGroup, cones: Iterable[Cone]) -> Dict[Cone, LatticeDatum]:
    """The classical lattice data Span(sigma) cap N of a lattice N.  On a
    lattice a subgroup is stored as the Hermite basis of itself, and the
    span lattice basis is one already, so it is the datum as it is."""
    return {c: LatticeDatum(group, Subgroup(group, c.span_lattice_basis())) for c in cones}


def is_classical(fan: KmFan) -> bool:
    """Lattice group and every datum saturated (F_sigma = N_sigma), read
    on the maximal cones only.

    A valid datum F_sigma lies in Span(sigma) cap N with rank dim sigma, so
    it is saturated in N exactly when it is N_sigma = Span(sigma) cap N: the
    quotient N_sigma / F_sigma is finite, and trivial when F_sigma is
    saturated.  For a face tau of a maximal sigma with F_sigma = N_sigma,
    compatibility gives F_tau = Span(tau) cap F_sigma = Span(tau) cap
    Span(sigma) cap N = Span(tau) cap N, as Span(tau) lies in Span(sigma).
    Every cone is a face of a maximal cone.
    """
    if not fan.group.is_lattice():
        return False
    return all(is_saturated(fan.data[c].basis()) for c in fan.maximal_cones())


def coarse_fan(fan: KmFan) -> Tuple[KmFan, KmFanHom]:
    """The underlying classical fan over N/N_tor, with the projection map.

    It is valid, and keeps the fan's maximal cones: its cone set is the
    fan's, a valid one in the same free quotient Z^r, and its data
    Span(sigma) cap N/N_tor are valid and compatible by construction, as
    in from_classical.
    """
    nbar, proj = free_quotient(fan.group)
    coarse = KmFan._make(nbar, fan.cones, _saturated_data(nbar, fan.cones), fan.maximal_cones())
    return coarse, KmFanHom(fan, coarse, proj, {c: c for c in fan.cones})


def rigidify(fan: KmFan) -> Tuple[KmFan, KmFanHom]:
    """Push the lattice data into N/N_tor: the initial lattice KM fan under F.

    It is valid, and keeps the fan's maximal cones.  Its cone set is the
    fan's.  The projection keeps the free coordinates and is injective on
    each F_sigma, which meets N_tor in 0; so proj(F_sigma) is a lattice of
    rank dim sigma in Span(sigma).  For a face tau of sigma, an element
    proj(y) with y in F_sigma lies in Span(tau) exactly when y does, so
    Span(tau) cap proj(F_sigma) = proj(Span(tau) cap F_sigma) = proj(F_tau).
    """
    nbar, proj = free_quotient(fan.group)
    data = {c: fan.data[c]._image(proj) for c in fan.cones}
    rig = KmFan._make(nbar, fan.cones, data, fan.maximal_cones())
    return rig, KmFanHom(fan, rig, proj, {c: c for c in fan.cones})


def ray_marking(fan: KmFan, ray: Cone) -> Vec:
    """The generator of F_rho on the positive side of the ray rho."""
    datum = fan.datum(ray)
    basis = datum.basis()
    if basis.cols != 1:
        raise KmFanError("ray datum must have rank one")
    gen = basis.column(0)
    free = gen[: fan.group.free_rank]
    direction = ray.rays[0]
    # the sign of the scale f / d taking the direction to the free part
    sign = next((f * d for f, d in zip(free, direction) if d), 0)
    if sign == 0:
        raise KmFanError("ray datum does not span the ray")
    if sign < 0:
        gen = fan.group.reduce(tuple(-x for x in gen))
    return gen


def roots(fan: KmFan, orders: Sequence[int]) -> Tuple[KmFan, KmFanHom]:
    """Scale the ray markings of a smooth fan: the root construction.

    ``orders`` is indexed by the rays of the fan in canonical order.
    """
    if not is_smooth(fan):
        raise NotSmooth("roots require a smooth fan")
    rays = fan.ray_cones()
    if len(orders) != len(rays):
        raise KmFanError("need one positive order per ray")
    if any(a < 1 for a in orders):
        raise KmFanError("orders must be positive")
    return _scaled_markings(fan, orders)


def _scaled_markings(fan: KmFan, orders: Sequence[int]) -> Tuple[KmFan, KmFanHom]:
    """The fan whose datum on each cone is spanned by its rays' markings,
    the marking of the i-th ray scaled by orders[i], with the identity map
    to fan."""
    rays = fan.ray_cones()
    marking = [ray_marking(fan, ray) for ray in rays]
    data = {}
    for c in fan.cones:
        gens = [
            tuple(a * x for x in m) for ray, a, m in zip(rays, orders, marking) if c.contains_cone(ray)
        ]
        data[c] = LatticeDatum.from_generators(fan.group, gens)
    scaled = KmFan._make(fan.group, fan.cones, data)
    return scaled, KmFanHom(scaled, fan, GroupHom.identity(fan.group), {c: c for c in fan.cones})


def dilate(fan: KmFan, factor: int) -> Tuple[KmFan, KmFanHom]:
    """Scale every lattice datum by a positive integer.

    It is valid, and keeps the fan's maximal cones.  Its cone set is the
    fan's.  k F_sigma lies in F_sigma, so it is torsion-free, and it has
    rank dim sigma in Span(sigma).  For a face tau of sigma, k y with y in
    F_sigma lies in Span(tau) exactly when y does, so Span(tau) cap
    k F_sigma = k (Span(tau) cap F_sigma) = k F_tau.
    """
    if factor < 1:
        raise KmFanError("dilation factor must be positive")
    data = {}
    for c in fan.cones:
        gens = [tuple(factor * x for x in g) for g in fan.data[c].generators()]
        data[c] = LatticeDatum.from_generators(fan.group, gens)
    dilated = KmFan._make(fan.group, fan.cones, data, fan.maximal_cones())
    return dilated, KmFanHom(dilated, fan, GroupHom.identity(fan.group), {c: c for c in fan.cones})


def inflate(fan: KmFan, inclusion: GroupHom) -> Tuple[KmFan, KmFanHom]:
    """Regard the fan over a finite-index overgroup N <= N'.

    ``inclusion`` is an injective map N -> N' with finite cokernel; the
    resulting morphism F -> F' is tame.  Its free part is injective (an
    element sent to torsion has a multiple sent to 0): cones are _carried.
    """
    if inclusion.source != fan.group:
        raise KmFanError("inclusion must start at the fan's group")
    if not is_injective(inclusion) or not _cokernel_group(inclusion).is_finite():
        raise NotFiniteIndex("inclusion must be injective with finite cokernel")
    fbar = inclusion.free_matrix()
    cone_map = _carried(fan.cones, _ray_images(fbar, fan), fbar.rows)
    data = {cone_map[c]: fan.data[c]._image(inclusion) for c in fan.cones}
    inflated = KmFan._make(inclusion.target, cone_map.values(), data)
    return inflated, KmFanHom(fan, inflated, inclusion, cone_map)


def contract(fan: KmFan, inclusion: GroupHom) -> Tuple[KmFan, KmFanHom]:
    """Restrict the fan to a finite-index subgroup N' <= N.

    ``inclusion`` is an injective map N' -> N with finite cokernel; data are
    intersected with N'.
    """
    if inclusion.target != fan.group:
        raise KmFanError("inclusion must land in the fan's group")
    if not is_injective(inclusion) or not _cokernel_group(inclusion).is_finite():
        raise NotFiniteIndex("inclusion must be injective with finite cokernel")
    contracted, cone_map = _restricted(fan, inclusion)
    return contracted, KmFanHom(contracted, fan, inclusion, cone_map)


def _restricted(fan: KmFan, inclusion: GroupHom) -> Tuple[KmFan, Dict[Cone, Cone]]:
    """The fan over N', given an injective map N' -> N whose free part is
    injective and whose image holds every cone, with its cone map back:
    the preimages of the cones and of the data.  The free part maps the
    preimage of a cone onto it, so the cone is _carried back, with the
    primitive preimages of all rays from one linear system."""
    rays = [c.rays[0] for c in fan.ray_cones()]
    ray = dict(zip(rays, _preimage_rays(inclusion.free_matrix(), rays)))
    back = {newc: c for c, newc in _carried(fan.cones, ray, inclusion.source.free_rank).items()}
    data = {newc: LatticeDatum(inclusion.source, preimage_subgroup(inclusion, fan.data[c].subgroup))
            for newc, c in back.items()}
    return KmFan._make(inclusion.source, back, data), back


def is_simplicial(fan: KmFan) -> bool:
    return all(c.is_simplicial() for c in fan.cones)


def canonical_resolution(fan: KmFan) -> Tuple[KmFan, KmFanHom]:
    """Replace each datum by the sublattice spanned by its primitive ray points."""
    if not is_simplicial(fan):
        raise NotSimplicial("canonical resolution requires a simplicial fan")
    return _scaled_markings(fan, [1] * len(fan.ray_cones()))


def star(fan: KmFan, tau: Cone) -> KmFan:
    """The star fan of tau: the KM fan over N/F_tau on the cones containing tau."""
    if tau not in fan.data:
        raise ConeNotInFan(f"{tau!r} is not a cone of this fan")
    q, proj = quotient(fan.group, fan.data[tau].subgroup)
    pbar = proj.free_matrix()
    cones = []
    data = {}
    for sigma in fan.cones:
        if not sigma.contains_cone(tau):
            continue
        image = sigma.linear_image(pbar)
        cones.append(image)
        data[image] = fan.data[sigma]._image(proj)
    return KmFan._make(q, cones, data)


class StratumInfo:
    """Invariants of the locally closed stratum attached to a cone."""

    __slots__ = ("cone", "torus_rank", "isotropy", "band")

    def __init__(self, cone: Cone, torus_rank: int, isotropy: FgaGroup, band: FgaGroup):
        self.cone = cone
        self.torus_rank = torus_rank
        self.isotropy = isotropy
        self.band = band

    def __repr__(self):
        return f"StratumInfo(cone={self.cone!r}, torus_rank={self.torus_rank}, isotropy={self.isotropy!r})"


def isotropy(fan: KmFan, sigma: Cone) -> FgaGroup:
    """The torsion subgroup of N/F_sigma, read off the invariant factors of
    F_sigma's preimage lattice: no projection onto N/F_sigma is built."""
    if sigma not in fan.data:
        raise ConeNotInFan(f"{sigma!r} is not a cone of this fan")
    return FgaGroup(0, _quotient_group(fan.group, fan.data[sigma].subgroup).torsion)


def strata(fan: KmFan) -> List[StratumInfo]:
    """The stratum of every cone, in the fan's order: the torus rank and the
    isotropy group are the free rank and the torsion of N/F_sigma, and the
    band is the isotropy group's Ext.  Each quotient type comes from the
    invariant factors of F_sigma's preimage (abelian._quotient_group), with
    no transform."""
    out = []
    for c in fan.cones:
        q = _quotient_group(fan.group, fan.data[c].subgroup)
        iso = FgaGroup(0, q.torsion)
        out.append(StratumInfo(c, q.free_rank, iso, ext_group(iso)))
    return out


def _data_sum(fan: KmFan) -> Subgroup:
    """The subgroup generated by all lattice data: one Hermite basis of the
    preimages of the maximal cones' data, which hold the relations of N.  In
    a valid fan F_tau lies in F_sigma for every face tau of sigma, so the
    maximal cones' data generate the same subgroup as all of them."""
    columns = [col for c in fan.maximal_cones() for col in fan.data[c].subgroup.preimage.columns()]
    return Subgroup(fan.group, hermite_column_basis(IntMatrix._from_columns(columns, fan.group.ncoords)))


def fundamental_group(fan: KmFan) -> FgaGroup:
    """N modulo the subgroup generated by all lattice data, from the
    invariant factors of their sum: no projection is built."""
    return _quotient_group(fan.group, _data_sum(fan))


def product(a: KmFan, b: KmFan) -> Tuple[KmFan, KmFanHom, KmFanHom]:
    """The product fan over N x N', with the two projections.

    Its cones are the products sigma x tau, with data F_sigma + F_tau.  The
    rays of sigma x tau are those of sigma and of tau, padded with zeros:
    they are primitive, and they are its extremal rays, as the faces of a
    product of sharp cones are the products of faces.  So each product is
    built from its sorted rays, of dimension dim sigma + dim tau, with no
    rank test.

    The product is valid.  Its cones are closed under faces, and
    (sigma x tau) cap (sigma' x tau') = (sigma cap sigma') x (tau cap tau')
    is a face of both.  F_sigma + F_tau meets N_tor + N'_tor in 0, has rank
    dim sigma + dim tau and lies in Span(sigma) x Span(tau); for faces,
    (Span(sigma') x Span(tau')) cap (F_sigma + F_tau) = (Span(sigma') cap
    F_sigma) + (Span(tau') cap F_tau) = F_sigma' + F_tau'.  A product is
    maximal exactly when both factors are, so the fan is handed its whole
    verdict with the products of maximal cones, in fan order.
    """
    grp, inc1, inc2, proj1, proj2 = direct_sum(a.group, b.group)
    ra, rb = a.group.free_rank, b.group.free_rank
    top_a, top_b = set(a.maximal_cones()), set(b.maximal_cones())
    to_a, to_b = {}, {}
    data = {}
    maximal = []
    for ca in a.cones:
        for cb in b.cones:
            rays = [r + (0,) * rb for r in ca.rays] + [(0,) * ra + r for r in cb.rays]
            c = Cone(ra + rb, sorted(rays), (), _dim=ca.dim() + cb.dim())
            to_a[c], to_b[c] = ca, cb
            if ca in top_a and cb in top_b:
                maximal.append(c)
            gens = [inc1.apply(g) for g in a.data[ca].generators()] + [
                inc2.apply(g) for g in b.data[cb].generators()
            ]
            data[c] = LatticeDatum.from_generators(grp, gens)
    prod = KmFan._make(grp, to_a, data, sorted(maximal, key=_fan_order))
    return prod, KmFanHom(prod, a, proj1, to_a), KmFanHom(prod, b, proj2, to_b)


def atoroidal_split(fan: KmFan) -> Tuple[KmFan, FgaGroup, KmFanHom]:
    """Split off the torus factor: F isomorphic to G x zero_fan(B).

    G is atoroidal over the saturated subgroup generated by all lattice data,
    B = N/A is free, and the returned morphism is an isomorphism from
    product(G, zero_fan(B)) onto F determined by a chosen splitting.  G is
    F _restricted to A, which holds N_tor and every datum.
    """
    n = fan.group
    pres = _quotient_presentation(n, _data_sum(fan))
    bgrp, free_proj = free_quotient(pres.group)
    a_grp, incl = kernel_subgroup(GroupHom(n, pres.group, pres.proj).then(free_proj)).as_group()
    g_fan, back = _restricted(fan, incl)

    # a splitting N = A + s(B): the section's free columns lift the basis of B
    section = pres.section.select_columns(range(bgrp.ncoords))
    prod, p1, p2 = product(g_fan, zero_fan(bgrp))
    iso_matrix = _matrix_add(incl.matrix @ p1.hom.matrix, section @ p2.hom.matrix)
    iso_images = {c: back[p1.cone_images[c]] for c in prod.cones}
    return g_fan, bgrp, KmFanHom(prod, fan, GroupHom(prod.group, n, iso_matrix), iso_images)


def _matrix_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise KmFanError("matrix shapes differ")
    return IntMatrix._make(
        tuple(tuple([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a.entries, b.entries)), a.cols
    )


# ---------------------------------------------------------------------------
# Support, liftings, local presentation
# ---------------------------------------------------------------------------


def _support_holder(fan: KmFan, free: Sequence[int]) -> Optional[Cone]:
    """The first maximal cone that holds a free-quotient point, or None
    when no cone does.  It decides the fine support over the point: an
    element n with free part p lies in the union of the F_c cap c exactly
    when n lies in F_holder.

    Proof.  Every cone lies in a maximal one, so some cone holds p exactly
    when a maximal one does.  Let c be any cone holding p and sigma the
    holder; in a fan tau = sigma cap c is a face of both, and p lies in tau.
    By compatibility F_tau = Span(tau) cap F_sigma = Span(tau) cap F_c, and
    n lies in Span(tau), as p does; so n in F_sigma <=> n in F_tau <=>
    n in F_c.
    """
    for c in fan.maximal_cones():
        if c.contains_point(free):
            return c
    return None


def support_contains(fan: KmFan, element: Sequence[int]) -> bool:
    """Membership in the fine support: union of F_sigma cap sigma, read off
    the one cone that decides it (_support_holder)."""
    n = fan.group.reduce(element)
    holder = _support_holder(fan, n[: fan.group.free_rank])
    return holder is not None and fan.data[holder].contains(n)


def coarse_support_contains(fan: KmFan, vector: Sequence[int]) -> bool:
    """Membership of a free-quotient vector in the union of the cones,
    which is the union of the maximal ones (_support_holder)."""
    return _support_holder(fan, vector) is not None


def construct_lifting(fan: KmFan, sigma: Cone) -> Subgroup:
    """A lifting of F_sigma: L = F_sigma + (complement of N_sigma in N).

    L is a finite-index lattice in N with L cap Span(sigma) = F_sigma, and
    N/F_sigma -> N/L is an isomorphism on torsion subgroups.  The choice of
    complement is deterministic but otherwise arbitrary.
    """
    datum = fan.datum(sigma)
    n = fan.group
    span = sigma.span_lattice_basis()
    nsigma_gens = [
        tuple(col) + (0,) * len(n.torsion) for col in span.columns()
    ] + [
        (0,) * n.free_rank + tuple(1 if i == j else 0 for i in range(len(n.torsion)))
        for j in range(len(n.torsion))
    ]
    nsigma = Subgroup.from_generators(n, nsigma_gens)
    complement = _quotient_presentation(n, nsigma).section.columns()
    gens = datum.generators() + [n.reduce(c) for c in complement]
    lifting = Subgroup.from_generators(n, gens)
    if not lifting.is_lattice():
        raise KmFanError("internal: lifting is not a lattice")
    return lifting


def lifting_violations(fan: KmFan, sigma: Cone, lifting: Subgroup) -> List[str]:
    """Why a subgroup fails to be a lifting of F_sigma, if it does."""
    out = []
    n = fan.group
    if not lifting.is_lattice():
        out.append("lifting is not torsion-free")
        return out
    if lifting.rank() != n.free_rank:
        out.append("lifting does not have finite index")
        return out
    if not _saturated_in(LatticeDatum(n, lifting), fan.datum(sigma)):
        out.append("lifting does not meet Span(sigma) in the lattice datum")
    return out


def compatible_lifting(f: KmFanHom, sigma: Cone, target_lifting: Subgroup) -> Subgroup:
    """A lifting L of F_sigma with f(L) inside the given lifting of F'_tau.

    When the induced map (N/F_sigma)_tor -> (N'/F'_tau)_tor is injective this
    is the full preimage f^{-1}(L'); otherwise the preimage is cut down by an
    independently constructed lifting.
    """
    tau = f.cone_images[sigma]
    problems = lifting_violations(f.target, tau, target_lifting)
    if problems:
        raise KmFanError("target lifting invalid: " + "; ".join(problems))
    pre = preimage_subgroup(f.hom, target_lifting)
    if _torsion_injective(f, sigma):
        lifting = pre
    else:
        lifting = construct_lifting(f.source, sigma).intersection(pre)
    if lifting_violations(f.source, sigma, lifting):
        raise KmFanError("internal: constructed lifting is invalid")
    return lifting


def _torsion_injective(f: KmFanHom, sigma: Cone) -> bool:
    """Whether the induced map N/F_sigma -> N'/F'_tau, tau =
    f.cone_images[sigma], is injective on torsion: whether its kernel is
    torsion-free.  No quotient is presented.

    Let R be the relation lattice of N, Lambda_sigma the preimage lattice of
    F_sigma in Z^m and Lambda that of f^{-1}(F'_tau).  Both hold R, and
    Lambda_sigma lies in Lambda, as f(F_sigma) lies in F'_tau.  The kernel
    of the induced map is f^{-1}(F'_tau)/F_sigma = (Lambda/R)/(Lambda_sigma/R)
    = Lambda/Lambda_sigma, which is torsion-free exactly when Lambda_sigma is
    saturated in Lambda: when the coordinates of Lambda_sigma's basis in
    Lambda's basis span a saturated sublattice.  They are solved for the
    columns as they are, not reduced modulo R, which would change the
    lattice they span.  A map built by hand that sends F_sigma outside
    F'_tau leaves some column without coordinates, and is refused.
    """
    tau = f.cone_images[sigma]
    big = preimage_subgroup(f.hom, f.target.datum(tau).subgroup).preimage
    coords = LinearSystem(big).integer_matrix(f.source.datum(sigma).subgroup.preimage)
    if coords is None:
        raise KmFanError(f"the datum of {sigma!r} does not map into the datum of its image {tau!r}")
    return is_saturated(coords)


class LocalPresentation:
    """Chart data at a cone: monoid, stabilizer, and the twisting character."""

    __slots__ = ("cone", "lifting", "monoid_generators", "stabilizer", "action")

    def __init__(self, cone, lifting, monoid_generators, stabilizer, action):
        self.cone = cone
        self.lifting = lifting
        self.monoid_generators = monoid_generators
        self.stabilizer = stabilizer
        self.action = action

    def __repr__(self):
        return (
            f"LocalPresentation(cone={self.cone!r}, stabilizer={self.stabilizer!r}, "
            f"monoid_generators={self.monoid_generators})"
        )


def local_presentation(fan: KmFan, sigma: Cone) -> LocalPresentation:
    """The quotient chart at sigma: Hilbert basis of S_sigma(L), the finite
    stabilizer E(N/L), and the character L^v -> E(N/L) defining the action.

    The character is the connecting map of the dualized sequence
    0 -> L -> N -> N/L -> 0.
    """
    lifting = construct_lifting(fan, sigma)
    n = fan.group
    datum = LatticeDatum(n, lifting)
    r = datum.rank()
    # the dual of the cone in L-coordinates
    hb = AffineMonoid(_datum_monoid(sigma, datum).cone.dual()).hilbert_basis()

    # stabilizer and action: E(N/L) = Lambda^v / im(J^T) with Lambda the
    # preimage lattice of L and J its basis; the action sends phi in L^v to
    # the class of phi composed with (projection | Lambda) -> L
    j = lifting.preimage                          # n.ncoords x n.ncoords
    pres = present_quotient(j.cols, j.transpose())
    stabilizer = pres.group
    pr = datum.coordinate_matrix(j.columns())      # Lambda -> L in bases
    if pr is None:
        raise KmFanError("internal: preimage column is not in the lifting")
    action = GroupHom(dual_group(FgaGroup(r)), stabilizer, pres.proj @ pr.transpose())
    return LocalPresentation(sigma, lifting, hb, stabilizer, action)


# ---------------------------------------------------------------------------
# Predicates on fans and morphisms
# ---------------------------------------------------------------------------


def is_smooth(fan: KmFan) -> bool:
    """Every monoid P_sigma = sigma cap F_sigma is free."""
    for c in fan.cones:
        if not is_free_monoid(cone_monoid(fan, c)):
            return False
    return True


def cone_monoid(fan: KmFan, sigma: Cone) -> AffineMonoid:
    """P_sigma = sigma cap F_sigma as an affine monoid in datum coordinates."""
    return _datum_monoid(sigma, fan.datum(sigma))


def _datum_monoid(cone: Cone, datum: LatticeDatum) -> AffineMonoid:
    """cone cap F as an affine monoid in the coordinates of the datum F."""
    return AffineMonoid(Cone.from_generators(_preimage_rays(datum.free_basis(), cone.rays), datum.rank()))


def monoid_presentation(fan: KmFan) -> List[Tuple[Cone, List[Vec]]]:
    """Generators of each P_sigma = sigma cap F_sigma as elements of N."""
    out = []
    for c in fan.cones:
        datum = fan.data[c]
        basis = datum.basis()
        monoid = cone_monoid(fan, c)
        gens = [fan.group.reduce(basis.apply(h)) for h in monoid.hilbert_basis()]
        out.append((c, sorted(gens)))
    return out


def fan_from_monoids(group: FgaGroup, monoid_generators: Sequence[Sequence[Sequence[int]]]) -> KmFan:
    """Rebuild a KM fan from generators of its monoids P_sigma.

    Each generator list must generate a sharp saturated submonoid of N; the
    collection must be face-closed with pairwise intersections being faces.
    Violations raise InvalidFan.
    """
    r = group.free_rank
    cones = []
    data = {}
    for gens in monoid_generators:
        gens = [group.reduce(g) for g in gens]
        cone = Cone.from_generators([g[:r] for g in gens], r)
        datum = LatticeDatum.from_generators(group, gens)
        if cone in data:
            if data[cone] != datum:
                raise InvalidFan([{ "kind": "duplicate-cone", "detail": f"{cone!r} presented twice"}])
            continue
        problems = datum.violations(cone)
        if problems:
            raise InvalidFan([{"kind": "invalid-datum", "detail": p} for p in problems])
        _check_monoid_saturated(cone, datum, gens)
        cones.append(cone)
        data[cone] = datum
    return KmFan(group, cones, data)


def _check_monoid_saturated(cone, datum, gens):
    """The supplied generators must generate all of sigma cap F_sigma.

    They do exactly when each element of the Hilbert basis is one of them,
    in datum coordinates, so the first element of the basis that is not
    one is the point the monoid misses.  For a sharp cone, each generator
    lies in P = sigma cap F_sigma, a sharp monoid, whose Hilbert basis is its
    set of irreducible elements (Bruns and Gubeladze, Polytopes, Rings, and
    K-Theory, Ch. 2): an irreducible element that is a sum of generators is
    one of them, and the generators generate P once they contain the basis.
    KmFan refuses a cone that is not sharp, whatever this check finds.
    """
    coords = datum.coordinate_matrix(gens)
    if coords is None:
        raise InvalidFan([{ "kind": "non-saturated-monoid",
                            "detail": "generator outside its own group"}])
    coords = set(coords.columns())
    for h in _datum_monoid(cone, datum).hilbert_basis():
        if h not in coords:
            raise InvalidFan([{ "kind": "non-saturated-monoid",
                                "detail": f"monoid misses the lattice point {h}"}])


def is_atoroidal(fan: KmFan) -> bool:
    all_rays = [r for c in fan.cones for r in c.rays]
    if fan.group.free_rank == 0:
        return True
    if not all_rays:
        return False
    return matrix_rank(IntMatrix._make(tuple(all_rays), fan.group.free_rank)) == fan.group.free_rank


def is_nondegenerate(fan: KmFan) -> bool:
    return all(c.dim() == fan.group.free_rank for c in fan.maximal_cones())


def is_equidimensional(f: KmFanHom) -> bool:
    """Every cone's image f_R(sigma) is itself a cone of the target fan.

    Read off the cone map, with no image cone built.  f(sigma) is a target
    cone exactly when it is tau = f.cone_images[sigma], the smallest target
    cone containing it: a target cone rho = f(sigma) contains tau (see
    validate_hom), which contains f(sigma) = rho.  And f(sigma) = tau exactly when every ray of tau is
    the primitive image of a ray of sigma.  If so, tau, the cone on its
    rays, lies in f(sigma), which lies in tau.  Conversely f(sigma) is the
    cone on the images of the rays of sigma, and it is sharp, as tau is, so
    each of its extremal rays is spanned by one of those images; a ray
    mapped to 0 gives the zero vector, which is no ray of tau.
    """
    _require_finite_cokernel(f)
    ray = _ray_images(f.hom.free_matrix(), f.source)
    return all(
        {ray[r] for r in sigma.rays}.issuperset(f.cone_images[sigma].rays) for sigma in f.source.cones
    )


def has_reduced_fibers(f: KmFanHom) -> bool:
    """Every restriction F_sigma -> F'_{f(sigma)} is surjective.

    Only defined when the map is equidimensional; then f(sigma) is
    f.cone_images[sigma] (see is_equidimensional).
    """
    if not is_equidimensional(f):
        raise PreconditionsFail("reduced-fiber criterion requires an equidimensional map")
    for sigma in f.source.cones:
        mapped = f.source.datum(sigma)._image(f.hom).subgroup
        if not mapped.contains_subgroup(f.target.datum(f.cone_images[sigma]).subgroup):
            return False
    return True


def _require_finite_cokernel(f: KmFanHom) -> None:
    if not _cokernel_group(f.hom).is_finite():
        raise InfiniteCokernel("criterion requires a finite cokernel on groups")


def is_semi_tame(f: KmFanHom) -> bool:
    """Cone-set bijection with bijective restrictions on cones and data.

    f(sigma) is compared with tau = f.cone_images[sigma], the smallest target
    cone containing it, on V-data alone: f(sigma) is a target cone of the
    dimension of sigma iff it is tau and dim tau = dim sigma.  Then f is
    injective on Span(sigma), and tau has the sorted primitive images of
    the rays of sigma (_ray_images) as its rays (_carried); conversely, if
    it has, f(sigma) is tau.  A ray mapped to 0 gives the zero vector,
    which is no ray of tau.
    """
    ray = _ray_images(f.hom.free_matrix(), f.source)
    images = []
    for sigma in f.source.cones:
        image = f.cone_images[sigma]
        if image.dim() != sigma.dim():
            return False
        if tuple(sorted({ray[r] for r in sigma.rays})) != image.rays:
            return False
        images.append(image)
        if f.source.datum(sigma)._image(f.hom).subgroup != f.target.datum(image).subgroup:
            return False
    if len(set(images)) != len(f.source.cones):
        return False
    if set(images) != set(f.target.cones):
        return False
    return True


def _tameness(f: KmFanHom) -> Tuple[bool, Optional[Subgroup], Optional[FgaGroup]]:
    """The semi-tame verdict and, when f is semi-tame, the kernel and
    cokernel of its group map (None otherwise), kept in f's tameness slot.
    A semi-tame f is tame exactly when its group map is; the derived dual
    of torsor_group starts from the same kernel and cokernel.  A slot that
    holds True (KmFanHom._semi_tame) keeps its verdict: only the kernel and
    cokernel are computed."""
    verdict = f._tame
    if verdict is None or verdict is True:
        if verdict or is_semi_tame(f):
            verdict = (True, *kernel_and_cokernel(f.hom))
        else:
            verdict = (False, None, None)
        _set_tame(f, verdict)
    return verdict


def is_tame(f: KmFanHom) -> bool:
    """Semi-tame, with a tame group map (finite cokernel, torsion-free
    kernel), read from the tameness slot (_tameness)."""
    semi_tame, kernel, cokernel = _tameness(f)
    return semi_tame and cokernel.is_finite() and kernel.is_lattice()


def torsor_group(f: KmFanHom) -> FgaGroup:
    """The group D(f) under which a tame map's realization is a torsor: the
    derived dual of the group map, computed on call from the kernel and
    cokernel that is_tame reads (_tameness)."""
    if not is_tame(f):
        raise NotTame("torsor group is defined for tame maps only")
    _, kernel, cokernel = _tameness(f)
    return dd_of_hom(f.hom, kernel=kernel, cokernel=cokernel).group


def is_representable(f: KmFanHom) -> bool:
    """Torsion-injectivity of every induced map N/F_sigma -> N'/F'_tau."""
    return all(_torsion_injective(f, sigma) for sigma in f.source.cones)


def is_proper(f: KmFanHom) -> bool:
    """Support criterion: the preimage of the coarse support equals the
    coarse support, checked cone by cone on maximal target cones, on the
    primitive images of the rays (_ray_images)."""
    fbar = f.hom.free_matrix()
    ray = _ray_images(fbar, f.source)
    for tau in f.target.maximal_cones():
        target_cone = tau.preimage(fbar)
        pieces = [sigma for sigma in f.source.cones if all(tau.contains_point(ray[r]) for r in sigma.rays)]
        if not union_covers(target_cone, pieces):
            return False
    return True
