"""Finitely generated abelian groups, homomorphisms, duals, Ext, derived duals.

A group is stored in invariant-factor normal form: free rank r plus torsion
invariants (d_1, ..., d_k) with 2 <= d_1 | d_2 | ... | d_k.  An element is a
coordinate tuple (a_1, ..., a_r, t_1, ..., t_k) with 0 <= t_i < d_i.  Two
groups are isomorphic iff they are equal.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch, KmFanError, NonLattice, NotTame
from .intlinalg import (
    IntMatrix,
    LinearSystem,
    Vec,
    _Value,
    _hermite_basis,
    _int_entry,
    _int_vector,
    hermite_column_basis,
    invariant_factors,
    kernel_basis,
    lattice_intersection,
    smith_decomposition,
)


class FgaGroup(_Value):
    """A finitely generated abelian group in invariant-factor normal form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        free_rank = _int_entry(free_rank)
        torsion = tuple(map(_int_entry, torsion))
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and torsion[i] % torsion[i - 1]:
                raise ValueError("torsion invariants must divide in sequence")
        _set_free_rank(self, free_rank)
        _set_torsion(self, torsion)

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_lattice(self) -> bool:
        return not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_trivial(self) -> bool:
        return self.ncoords == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        return None if self.free_rank else self.torsion_order()

    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    def zero(self) -> Vec:
        return (0,) * self.ncoords

    def reduce(self, vector: Sequence[int]) -> Vec:
        """Normalize a coordinate vector (torsion coordinates mod d_i); a
        coordinate that is not an integer raises TypeError."""
        if len(vector) != self.ncoords:
            raise DimensionMismatch("wrong number of coordinates")
        vector = _int_vector(vector)
        if not self.torsion:
            return vector
        r = self.free_rank
        return vector[:r] + tuple(v % d for v, d in zip(vector[r:], self.torsion))

    def relation_matrix(self) -> IntMatrix:
        """Columns d_i * e_{r+i}: the relations of the standard presentation."""
        return IntMatrix._from_columns(self._relation_columns(), self.ncoords)

    def _relation_columns(self) -> List[Vec]:
        """The columns of relation_matrix, as int tuples."""
        m, r = self.ncoords, self.free_rank
        return [tuple(d if j == r + i else 0 for j in range(m)) for i, d in enumerate(self.torsion)]

    def torsion_elements(self) -> List[Vec]:
        """All torsion elements (free coordinates zero)."""
        out = [(0,) * self.free_rank]
        for d in self.torsion:
            out = [e + (t,) for e in out for t in range(d)]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FgaGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class GroupHom(_Value):
    """A homomorphism of FgaGroups, given by an integer matrix on coordinates.

    Column j is the image of the j-th standard generator of the source; the
    constructor rejects matrices that do not kill the source relations.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgaGroup, target: FgaGroup, matrix: IntMatrix):
        if matrix.rows != target.ncoords or matrix.cols != source.ncoords:
            raise DimensionMismatch("matrix shape does not match groups")
        if target.torsion:
            matrix = IntMatrix._from_columns([target.reduce(c) for c in matrix.columns()], target.ncoords)
        r = source.free_rank
        for i, d in enumerate(source.torsion):
            img = target.reduce(tuple(d * x for x in matrix.column(r + i)))
            if any(img):
                raise KmFanError(
                    f"matrix does not define a homomorphism: generator {r + i} "
                    f"of order {d} has image of larger order"
                )
        _set_hom_source(self, source)
        _set_hom_target(self, target)
        _set_hom_matrix(self, matrix)

    @staticmethod
    def identity(group: FgaGroup) -> "GroupHom":
        return GroupHom(group, group, IntMatrix.identity(group.ncoords))

    @staticmethod
    def zero(source: FgaGroup, target: FgaGroup) -> "GroupHom":
        return GroupHom(source, target, IntMatrix.zero(target.ncoords, source.ncoords))

    def apply(self, vector: Sequence[int]) -> Vec:
        if len(vector) != self.source.ncoords:
            raise DimensionMismatch("element has wrong length")
        return self.target.reduce(self.matrix.apply(vector))

    def then(self, other: "GroupHom") -> "GroupHom":
        """other o self."""
        if other.source != self.target:
            raise DimensionMismatch("homomorphisms do not compose")
        return GroupHom(self.source, other.target, other.matrix @ self.matrix)

    def free_matrix(self) -> IntMatrix:
        """The induced map on free quotients N/N_tor -> N'/N'_tor."""
        s = self.source.free_rank
        return IntMatrix._make(tuple(r[:s] for r in self.matrix.entries[: self.target.free_rank]), s)

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r}, {self.matrix.entries})"


class Subgroup(_Value):
    """A subgroup of an FgaGroup, in canonical form.

    Internally the subgroup H <= N is stored as P, the Hermite column basis
    of its preimage lattice in Z^m (m = number of coordinates of N).  The
    preimage always contains the relation lattice R of N, and determines H,
    so two Subgroups are equal iff they are the same subgroup.

    Rank, torsion-freeness and a free basis are read off P.  Let N = Z^r +
    Z/d_1 + ... + Z/d_t, so R is spanned by the d_i e_{r+i}.  The columns of
    P with their pivot (first nonzero entry) in a torsion row span P cap
    (0 + Z^t), of rank t as it holds R: they are the last t, with pivots p_i
    in rows r+i.  So rank(H) = rank(P) - rank(R) = k for k = P.cols - t, and
    H_tor = (P cap (0 + Z^t)) / R, in which R has index prod(d_i / p_i), as
    d_i e_{r+i} is zero above row r+i.  H is torsion-free iff entry
    (r+i, k+i) of P is d_i for every i; then the last t columns are R, as
    Hermite forms are unique, and the first k, their torsion entries reduced
    into [0, d_i), are the canonical basis of H.  One linear system on P,
    built on first use, answers membership, and the first k entries of its
    solution are the coordinates in that basis.
    """

    __slots__ = ("ambient", "preimage", "_as_group", "_system")

    def __init__(self, ambient: FgaGroup, preimage: IntMatrix):
        _set_subgroup_ambient(self, ambient)
        _set_preimage(self, preimage)
        _set_as_group(self, None)
        _set_system(self, None)

    @staticmethod
    def from_generators(ambient: FgaGroup, generators: Iterable[Sequence[int]]) -> "Subgroup":
        """The subgroup the elements generate, stored as the Hermite basis
        of the reduced generators followed by the relation columns, which
        go to the echelon as they are (intlinalg._hermite_basis): no matrix
        is built, transposed or stacked first."""
        columns = [ambient.reduce(g) for g in generators] + ambient._relation_columns()
        return Subgroup(ambient, _hermite_basis(columns, ambient.ncoords))

    @staticmethod
    def trivial(ambient: FgaGroup) -> "Subgroup":
        return Subgroup.from_generators(ambient, [])

    @staticmethod
    def full(ambient: FgaGroup) -> "Subgroup":
        return Subgroup(ambient, IntMatrix.identity(ambient.ncoords))

    def _linear_system(self) -> LinearSystem:
        """The linear system on P, built on first use and kept."""
        system = self._system
        if system is None:
            system = LinearSystem(self.preimage)
            _set_system(self, system)
        return system

    def _solve(self, vectors: Iterable[Sequence[int]]) -> Optional[IntMatrix]:
        """The X with P X = [v_1 ... v_m] for the reduced elements v_i, or
        None when one of them is outside H: one batched solve
        (LinearSystem.integer_matrix)."""
        columns = [self.ambient.reduce(v) for v in vectors]
        return self._linear_system().integer_matrix(IntMatrix._from_columns(columns, self.ambient.ncoords))

    def _solve_one(self, vector: Sequence[int]) -> Optional[Vec]:
        """_solve of one element, as a vector: the x with P x = v for the
        reduced element v, or None when v is outside H: the column step of
        the batched solve, with no one-column matrix built and no second
        check of v, which reduce has checked and converted."""
        system = self._linear_system()
        return system._integer(system._t.apply(self.ambient.reduce(vector)))

    def contains(self, vector: Sequence[int]) -> bool:
        return self._solve_one(vector) is not None

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return self._solve(other.generators()) is not None

    def generators(self) -> List[Vec]:
        """Canonical generators (images of the preimage basis, zeros dropped)."""
        out = []
        for c in self.preimage.columns():
            v = self.ambient.reduce(c)
            if any(v):
                out.append(v)
        return out

    def generator_matrix(self) -> IntMatrix:
        return IntMatrix._from_columns(self.generators(), self.ambient.ncoords)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.ambient, lattice_intersection(self.preimage, other.preimage))

    def as_group(self) -> Tuple[FgaGroup, GroupHom]:
        """The abstract isomorphism type plus an inclusion into the ambient."""
        if self._as_group is None:
            _set_as_group(self, _presentation_of_image(self.ambient, self.preimage))
        return self._as_group

    def group(self) -> FgaGroup:
        return self.as_group()[0]

    def is_lattice(self) -> bool:
        k, r, rows = self.rank(), self.ambient.free_rank, self.preimage.entries
        return all(rows[r + i][k + i] == d for i, d in enumerate(self.ambient.torsion))

    def rank(self) -> int:
        return self.preimage.cols - len(self.ambient.torsion)

    def lattice_basis(self) -> IntMatrix:
        """Columns form a free basis of the subgroup; requires torsion-freeness.

        The basis is canonical: the first rank() columns of the preimage
        (see the class docstring).  On a lattice ambient that is the preimage.
        """
        if not self.is_lattice():
            raise NonLattice("subgroup has torsion")
        return self.preimage.select_columns(range(self.rank()))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and self.preimage == other.preimage
        )

    def __hash__(self):
        return hash((self.ambient, self.preimage))

    def __repr__(self):
        return f"Subgroup({self.ambient!r}, gens={self.generators()})"


# slot setters, bound once (see intlinalg._Value)
_set_free_rank = FgaGroup.free_rank.__set__
_set_torsion = FgaGroup.torsion.__set__
_set_hom_source = GroupHom.source.__set__
_set_hom_target = GroupHom.target.__set__
_set_hom_matrix = GroupHom.matrix.__set__
_set_subgroup_ambient = Subgroup.ambient.__set__
_set_preimage = Subgroup.preimage.__set__
_set_as_group = Subgroup._as_group.__set__
_set_system = Subgroup._system.__set__


class QuotientPresentation(NamedTuple):
    """Normal form of Z^m / (column span), with projection and a section."""

    group: FgaGroup
    proj: IntMatrix       # group.ncoords x m
    section: IntMatrix    # m x group.ncoords

    def lift(self, coords: Sequence[int]) -> Vec:
        return self.section.apply(coords)


def present_quotient(m: int, relation_columns: IntMatrix) -> QuotientPresentation:
    """Normal form of the quotient of Z^m by the given column span."""
    if relation_columns.rows != m:
        raise DimensionMismatch("relation columns live in the wrong space")
    s = smith_decomposition(relation_columns, transforms=("u", "u_inv"))
    diag = s.diagonal()

    def modulus(i: int) -> int:
        return diag[i] if i < len(diag) else 0

    free_idx = [i for i in range(m) if modulus(i) == 0]
    tor_idx = [i for i in range(m) if modulus(i) >= 2]
    group = FgaGroup(len(free_idx), tuple(modulus(i) for i in tor_idx))
    order = free_idx + tor_idx
    proj = s.u.select_rows(order)
    section = s.u_inv.select_columns(order)
    return QuotientPresentation(group, proj, section)


def _presentation_of_image(ambient: FgaGroup, preimage: IntMatrix) -> Tuple[FgaGroup, GroupHom]:
    """Normal form of H = image of a preimage lattice, with inclusion into N.

    On a lattice N the preimage is H itself, and its Hermite basis has full
    column rank: H is Z^t with the basis as inclusion, which is what the
    general path (no relations, so an empty kernel) returns too.  Elsewhere
    the preimage holds the relations of N, so t > 0.
    """
    t = preimage.cols
    if ambient.is_lattice():
        grp = FgaGroup(t)
        return grp, GroupHom(grp, ambient, preimage)
    rel = ambient.relation_matrix()
    ker = kernel_basis(preimage.hstack(rel))
    coeff = ker.select_rows(range(t))
    pres = present_quotient(t, coeff)
    incl_matrix = preimage @ pres.section
    incl = GroupHom(pres.group, ambient, incl_matrix)
    return pres.group, incl


# ---------------------------------------------------------------------------
# Operation spellings
# ---------------------------------------------------------------------------


def _quotient_presentation(ambient: FgaGroup, sub: Subgroup) -> QuotientPresentation:
    """N/H with its projection and a section, from one Smith decomposition:
    the section's columns lift the quotient's generators, so whatever needs
    a lift through N -> N/H reads it here.  The trivial subgroup gives N
    itself, with identity projection and section."""
    if sub.ambient != ambient:
        raise KmFanError("subgroup lives in a different group")
    gens = sub.generator_matrix()
    if gens.cols == 0:
        identity = IntMatrix.identity(ambient.ncoords)
        return QuotientPresentation(ambient, identity, identity)
    return present_quotient(ambient.ncoords, ambient.relation_matrix().hstack(gens))


def _quotient_group(ambient: FgaGroup, sub: Subgroup) -> FgaGroup:
    """The isomorphism type of N/H alone, from the invariant factors of H's
    preimage lattice (intlinalg.invariant_factors, which tracks no transform).
    The preimage holds the relations of N, so Z^m / preimage is N/H: its
    free rank is m minus the number of invariant factors, and its torsion
    is the factors other than 1.  This is the group quotient() returns."""
    if sub.ambient != ambient:
        raise KmFanError("subgroup lives in a different group")
    factors = invariant_factors(sub.preimage)
    return FgaGroup(ambient.ncoords - len(factors), tuple(d for d in factors if d != 1))


def quotient(ambient: FgaGroup, sub: Subgroup) -> Tuple[FgaGroup, GroupHom]:
    """The cokernel of a subgroup inclusion, with the projection map.

    Quotienting by the trivial subgroup returns the ambient group itself with
    the identity projection.
    """
    pres = _quotient_presentation(ambient, sub)
    return pres.group, GroupHom(ambient, pres.group, pres.proj)


def free_quotient(group: FgaGroup) -> Tuple[FgaGroup, GroupHom]:
    """The free quotient N/N_tor, with the projection dropping the torsion
    coordinates."""
    free = FgaGroup(group.free_rank)
    proj = GroupHom(group, free, IntMatrix.identity(group.ncoords).select_rows(range(group.free_rank)))
    return free, proj


def dual_group(group: FgaGroup) -> FgaGroup:
    """Hom(N, Z): the free part's dual; torsion dies."""
    return FgaGroup(group.free_rank)


def dual_hom(f: GroupHom) -> GroupHom:
    """Hom(-, Z) applied to f: the transpose on free parts."""
    return GroupHom(dual_group(f.target), dual_group(f.source), f.free_matrix().transpose())


def ext_group(group: FgaGroup) -> FgaGroup:
    """Ext^1(N, Z), isomorphic to the torsion subgroup of N."""
    return FgaGroup(0, group.torsion)


def hom_kernel_cokernel(f: GroupHom) -> Tuple[Subgroup, FgaGroup, GroupHom]:
    """Kernel subgroup, cokernel in normal form, and the cokernel projection."""
    ker = kernel_subgroup(f)
    rel = f.target.relation_matrix().hstack(f.matrix)
    pres = present_quotient(f.target.ncoords, rel)
    cok_proj = GroupHom(f.target, pres.group, pres.proj)
    return ker, pres.group, cok_proj


def _preimage_of(f: GroupHom, lattice: IntMatrix) -> Subgroup:
    """The subgroup {x : f(x) in the image of the lattice} of the source,
    for a lattice in Z^m holding the relations of the target: the x-part of
    the kernel of [f | lattice].  That x-part holds the relations of the
    source, which f maps into the target's, so it is the preimage lattice."""
    lifted = kernel_basis(f.matrix.hstack(lattice))
    return Subgroup(f.source, hermite_column_basis(lifted.select_rows(range(f.source.ncoords))))


def kernel_subgroup(f: GroupHom) -> Subgroup:
    """The subgroup {x : f(x) = 0} of the source."""
    return _preimage_of(f, f.target.relation_matrix())


def image_subgroup(f: GroupHom) -> Subgroup:
    return Subgroup.from_generators(f.target, f.matrix.columns())


def preimage_subgroup(f: GroupHom, sub: Subgroup) -> Subgroup:
    """The subgroup f^{-1}(H) of the source: H's preimage lattice holds the
    relations of the target."""
    if sub.ambient != f.target:
        raise KmFanError("subgroup lives in the wrong group")
    return _preimage_of(f, sub.preimage)


def is_injective(f: GroupHom) -> bool:
    return not kernel_subgroup(f).generators()


def _cokernel_group(f: GroupHom) -> FgaGroup:
    """Cok f = N'/f(N) alone, from invariant factors (_quotient_group):
    the yes/no questions about it need no projection."""
    return _quotient_group(f.target, image_subgroup(f))


def kernel_and_cokernel(f: GroupHom) -> Tuple[Subgroup, FgaGroup]:
    """Ker f as a subgroup and Cok f in normal form, without the cokernel
    projection of hom_kernel_cokernel: what is_tame_hom reads, and what
    dd_of_hom starts from."""
    return kernel_subgroup(f), _cokernel_group(f)


def is_surjective(f: GroupHom) -> bool:
    return _cokernel_group(f).is_trivial()


def is_isomorphism(f: GroupHom) -> bool:
    return is_injective(f) and is_surjective(f)


def is_tame_hom(f: GroupHom) -> bool:
    """Finite cokernel and torsion-injective (equivalently torsion-free kernel)."""
    return _cokernel_group(f).is_finite() and kernel_subgroup(f).is_lattice()


class DerivedDual(NamedTuple):
    """D(f) = H^0 of the Z-dual of the two-term complex [N -> N'], for tame f.

    Carries explicit witnesses of the exact sequences it sits in:

      0 -> E(Cok f) -> D(f) -> (Ker f)^v -> 0        (from_ext_cok, to_ker_dual)
      N^v -> D(f) -> E(N')                            (from_source_dual, to_ext_target)

    The Ext groups appearing as sources/targets are in normal form, equal to
    ext_group(...) of the corresponding group.
    """

    hom: GroupHom
    group: FgaGroup
    kernel: Subgroup
    cokernel: FgaGroup
    from_ext_cok: GroupHom
    to_ker_dual: GroupHom
    from_source_dual: GroupHom
    to_ext_target: GroupHom


def dd_of_hom(f: GroupHom, kernel: Optional[Subgroup] = None,
              cokernel: Optional[FgaGroup] = None) -> DerivedDual:
    """The derived dual of a tame homomorphism, with exact-sequence witnesses.

    A caller that already holds the kernel subgroup and the cokernel of f
    passes them, and they are not computed again.

    Present the source as Z^a / im R and the target as Z^b / im R'; lift f to
    F : Z^a -> Z^b and pick G with F R = R' G.  The complex

        Z^k --(R, -G)--> Z^a + Z^{k'} --(F | R')--> Z^b

    of free groups is quasi-isomorphic to [N -> N'], so D(f) is the middle
    cohomology of its Z-dual: ker((R,-G)^T) / im((F | R')^T).

    E(N') is Z^{k'} / (d_i e_i) for the target's invariants d_1 | ... | d_k',
    which is already its normal form, ext_group(N'): the witness into it
    reduces the last k' coordinates mod d_i, with no presentation.
    """
    ker_sub = kernel_subgroup(f) if kernel is None else kernel
    cok = _cokernel_group(f) if cokernel is None else cokernel
    if not (cok.is_finite() and ker_sub.is_lattice()):
        raise NotTame("derived dual requires a tame homomorphism")
    src, tgt = f.source, f.target
    a, b = src.ncoords, tgt.ncoords
    k, kp = len(src.torsion), len(tgt.torsion)
    r_src = src.relation_matrix()          # a x k
    r_tgt = tgt.relation_matrix()          # b x kp
    big_f = f.matrix                       # b x a

    def solved(system: LinearSystem, rhs: IntMatrix, what: str) -> IntMatrix:
        x = system.integer_matrix(rhs)
        if x is None:
            raise KmFanError(f"internal: {what}")
        return x

    # G : Z^k -> Z^{kp} with F R = R' G (exists because f is well defined)
    tgt_relations = LinearSystem(r_tgt)
    gmat = solved(tgt_relations, big_f @ r_src, "relation compatibility failed")

    # A = [[R], [-G]]  ((a+kp) x k);  B = [F | R']  (b x (a+kp))
    amat = IntMatrix._make(r_src.entries + gmat.scale(-1).entries, k)
    bmat = big_f.hstack(r_tgt)

    kb = kernel_basis(amat.transpose())     # columns: basis of ker(A^T) in Z^{a+kp}
    s = kb.cols
    kernel_system = LinearSystem(kb)
    outside = "vector not in kernel lattice"

    # relations of D(f): the columns of B^T expressed in the kernel basis
    pres = present_quotient(s, solved(kernel_system, bmat.transpose(), outside))
    dgroup = pres.group

    ker_basis = ker_sub.lattice_basis()     # a x s_k, columns a basis of Ker f
    s_k = ker_basis.cols

    # --- witness: D(f) -> (Ker f)^v --------------------------------------
    # mu2 solves R' mu2 = -F X; the dual of the chain inclusion
    mu2 = solved(tgt_relations, (big_f @ ker_basis).scale(-1), "kernel column does not map into relations")
    ker_dual = FgaGroup(s_k)
    pairing = ker_basis.transpose().hstack(mu2.transpose())   # s_k x (a+kp)
    to_ker_dual = GroupHom(dgroup, ker_dual, pairing @ kb @ pres.section)

    # --- witness: E(Cok f) -> D(f) ----------------------------------------
    # GroupHom reduces the columns of its matrix, so pres.proj @ X sends
    # each column of X to its normal form, here and below
    cmat = hermite_column_basis(big_f.hstack(r_tgt))          # b x b (cok finite)
    ecok_pres = present_quotient(cmat.cols, cmat.transpose())
    ecok = ecok_pres.group                                    # = ext_group(cok)
    nu = solved(LinearSystem(cmat), bmat, "image column outside image lattice")
    lifted = solved(kernel_system, nu.transpose() @ ecok_pres.section, outside)
    from_ext_cok = GroupHom(ecok, dgroup, pres.proj @ lifted)

    # --- witness: N^v -> D(f) ----------------------------------------------
    src_dual = dual_group(src)
    units = IntMatrix.identity(a + kp).select_columns(range(src.free_rank))
    from_source_dual = GroupHom(src_dual, dgroup, pres.proj @ solved(kernel_system, units, outside))

    # --- witness: D(f) -> E(N') ---------------------------------------------
    etgt = ext_group(tgt)
    to_ext_target = GroupHom(dgroup, etgt, (kb @ pres.section).select_rows(range(a, a + kp)))

    return DerivedDual(
        hom=f,
        group=dgroup,
        kernel=ker_sub,
        cokernel=cok,
        from_ext_cok=from_ext_cok,
        to_ker_dual=to_ker_dual,
        from_source_dual=from_source_dual,
        to_ext_target=to_ext_target,
    )


def finite_quotient_extension(lattice: FgaGroup, g: GroupHom) -> Tuple[FgaGroup, GroupHom]:
    """Extend a lattice N along a character g : N^v -> A into a finite group.

    Returns (N', inc) with N' the derived dual of g, inc : N -> N' injective,
    Cok(inc) = E(A), so that E(N'/N) recovers A.
    """
    if not lattice.is_lattice():
        raise NonLattice("ambient group must be torsion-free")
    if g.source != dual_group(lattice):
        raise KmFanError("character must be defined on the dual lattice")
    if not g.target.is_finite():
        raise KmFanError("character target must be finite")
    dd = dd_of_hom(g)
    # D(g) sits in 0 -> (N^v)^v -> D(g) -> E(A) -> 0; (N^v)^v = N in coordinates
    inc = dd.from_source_dual
    return dd.group, GroupHom(lattice, dd.group, inc.matrix)


def direct_sum(a: FgaGroup, b: FgaGroup):
    """Normal form of a x b along with the two inclusions and projections.

    Free coordinates are the concatenation (a's, then b's); only the torsion
    coordinates are renormalized, by the presentation of Z^k modulo the
    diagonal of both torsion invariants, so free data are unaffected.  Each
    map is an identity block on the free coordinates beside the
    presentation's projection (inclusions) or section (projections).
    """
    ra, ka = a.free_rank, len(a.torsion)
    tor = a.torsion + b.torsion
    k = len(tor)
    diag = IntMatrix._make(tuple(tuple(d if i == j else 0 for j in range(k)) for i, d in enumerate(tor)), k)
    pres = present_quotient(k, diag)
    grp = FgaGroup(ra + b.free_rank, pres.group.torsion)
    free = IntMatrix.identity(grp.free_rank)

    def maps(summand: FgaGroup, free_idx: range, tor_idx: range) -> Tuple[GroupHom, GroupHom]:
        inc = _block_diagonal(free.select_columns(free_idx), pres.proj.select_columns(tor_idx))
        proj = _block_diagonal(free.select_rows(free_idx), pres.section.select_rows(tor_idx))
        return GroupHom(summand, grp, inc), GroupHom(grp, summand, proj)

    inc_a, proj_a = maps(a, range(ra), range(ka))
    inc_b, proj_b = maps(b, range(ra, grp.free_rank), range(ka, k))
    return grp, inc_a, inc_b, proj_a, proj_b


def _block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix [[a, 0], [0, b]]."""
    return IntMatrix._make(
        tuple(r + (0,) * b.cols for r in a.entries) + tuple((0,) * a.cols + r for r in b.entries),
        a.cols + b.cols,
    )
