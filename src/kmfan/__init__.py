"""Exact combinatorics of stacky fans over finitely generated abelian groups.

The library implements KM fans (fans with lattice data over a finitely
generated abelian group), their constructions and invariants, morphism
classification (tame, proper, representable), and the folding/unfolding
correspondence with GS fans.  All arithmetic is exact.
"""

from .abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    dd_of_hom,
    dual_group,
    dual_hom,
    ext_group,
    finite_quotient_extension,
    free_quotient,
    hom_kernel_cokernel,
    is_tame_hom,
    quotient,
)
from .cones import Cone, union_covers
from .errors import KmFanError
from .fans import (
    KmFan,
    KmFanHom,
    LatticeDatum,
    atoroidal_split,
    canonical_resolution,
    coarse_fan,
    construct_lifting,
    contract,
    dilate,
    fundamental_group,
    from_classical,
    inflate,
    is_atoroidal,
    is_classical,
    is_equidimensional,
    is_nondegenerate,
    is_proper,
    is_representable,
    is_semi_tame,
    is_simplicial,
    is_smooth,
    is_tame,
    isotropy,
    local_presentation,
    monoid_presentation,
    product,
    rigidify,
    roots,
    star,
    strata,
    support_contains,
    torsor_group,
    validate_hom,
    zero_fan,
)
from .gsfans import (
    GsFan,
    Unfolding,
    fold,
    fold_unfold_roundtrip,
    is_foldable,
    is_gs_representable,
    lattice_data_colimit,
    rigidified_unfold,
    unfold,
)
from .monoids import AffineMonoid, dual_monoid, face_of_monoid, is_free_monoid, kernel_submonoid

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
