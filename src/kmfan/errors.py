"""Exception types shared across the library."""


class KmFanError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KmFanError):
    pass


class NonLattice(KmFanError):
    pass


class NotTame(KmFanError):
    pass


class NotSharp(KmFanError):
    pass


class NotAFace(KmFanError):
    pass


class NotSmooth(KmFanError):
    pass


class NotSimplicial(KmFanError):
    pass


class NotFiniteIndex(KmFanError):
    pass


class InfiniteCokernel(KmFanError):
    pass


class ConeNotInFan(KmFanError):
    pass


class TorsionAmbient(KmFanError):
    pass


class PieceOutsideTarget(KmFanError):
    pass


class NotFoldable(KmFanError):
    """Carries the structured foldability problems in ``violations``."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v["detail"] for v in self.violations))


class PreconditionsFail(KmFanError):
    pass


class RankTooHigh(KmFanError):
    pass


class InvalidFan(KmFanError):
    """Raised when constructing a fan that fails validation.

    Carries the structured violation list in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))
