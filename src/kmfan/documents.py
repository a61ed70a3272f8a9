"""JSON documents for fans, homomorphisms, and GS fans (schema version 1).

Integers whose magnitude exceeds 53 bits are serialized as strings so the
files survive JSON readers that parse numbers as doubles.  Parsing accepts
both forms.  Serialization is deterministic: canonical order, sorted keys.
"""

from __future__ import annotations

import json
from typing import Iterator, List, Sequence

from .abelian import FgaGroup, GroupHom
from .cones import Cone
from .errors import KmFanError
from .fans import KmFan, LatticeDatum, from_classical
from .gsfans import GsFan
from .intlinalg import IntMatrix

SCHEMA_VERSION = "1"
_SAFE = 2 ** 53 - 1
# The largest free rank a document may declare.  A larger one is a schema
# error, not a hang or an OverflowError deep inside the integer core.
MAX_FREE_RANK = 4096
# The largest number of torsion invariants a document may declare.  Every
# datum check runs over all coordinates of N, and 1024 invariants of 2 on
# a one-ray fan took a minute to stratify.
MAX_TORSION_INVARIANTS = 64


class DocumentError(KmFanError):
    """Malformed or schema-violating input document."""


def _enc_int(n: int):
    return n if abs(n) <= _SAFE else str(n)


def _dec_int(value) -> int:
    if isinstance(value, bool):
        raise DocumentError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise DocumentError(f"not an integer: {value!r}") from exc
    raise DocumentError(f"not an integer: {value!r}")


def _enc_vector(v: Sequence[int]) -> list:
    return [_enc_int(int(x)) for x in v]


def _dec_vector(value, length=None) -> tuple:
    if not isinstance(value, list):
        raise DocumentError("expected a list of integers")
    # a list of plain ints is taken in one pass (type(x) is int rejects bool);
    # any other entry sends it through _dec_int, which names the bad one
    if {*map(type, value)} <= {int}:
        out = tuple(value)
    else:
        out = tuple(_dec_int(x) for x in value)
    if length is not None and len(out) != length:
        raise DocumentError(f"expected a vector of length {length}")
    return out


def _dec_matrix_rows(value, cols=None) -> List[tuple]:
    if not isinstance(value, list):
        raise DocumentError("expected a list of rows")
    return [tuple(_dec_vector(r, cols)) for r in value]


def _dec_cones(value, rank: int) -> Iterator[Cone]:
    """The cones of a cones list, one entry at a time; a zero ray is
    refused, as it would load as no ray at all."""
    if not isinstance(value, list):
        raise DocumentError("cones must be a list")
    for entry in value:
        if not isinstance(entry, dict) or "rays" not in entry:
            raise DocumentError("each cone needs a rays field")
        rays = _dec_matrix_rows(entry["rays"], rank)
        if not all(map(any, rays)):
            raise DocumentError("a cone ray must be nonzero")
        yield Cone.from_generators(rays, rank)


def _check_header(obj, what: str) -> None:
    """A document is an object of the supported schema version."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} document must be an object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {obj.get('schema_version')!r}")


def group_to_obj(group: FgaGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "torsion_invariants": [_enc_int(d) for d in group.torsion],
    }


def group_from_obj(obj) -> FgaGroup:
    if not isinstance(obj, dict):
        raise DocumentError("group must be an object")
    try:
        free = _dec_int(obj["free_rank"])
        torsion = _dec_vector(obj.get("torsion_invariants", []))
    except KeyError as exc:
        raise DocumentError(f"group is missing {exc}") from exc
    if free > MAX_FREE_RANK:
        raise DocumentError(f"free_rank {free} exceeds the maximum {MAX_FREE_RANK}")
    if len(torsion) > MAX_TORSION_INVARIANTS:
        raise DocumentError(
            f"{len(torsion)} torsion invariants exceed the maximum {MAX_TORSION_INVARIANTS}"
        )
    try:
        return FgaGroup(free, torsion)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def fan_to_obj(fan: KmFan) -> dict:
    cones = [{"rays": [_enc_vector(r) for r in c.rays]} for c in fan.cones]
    data = [
        {
            "cone_index": i,
            "generators": [_enc_vector(g) for g in fan.data[c].generators()],
        }
        for i, c in enumerate(fan.cones)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_to_obj(fan.group),
        "cones": cones,
        "lattice_data": data,
    }


def fan_from_obj(obj) -> KmFan:
    """The validated fan of a document; an invalid fan raises InvalidFan."""
    _check_header(obj, "fan")
    group = group_from_obj(obj.get("group"))
    cones, seen = [], set()
    for cone in _dec_cones(obj.get("cones"), group.free_rank):
        if cone in seen:
            raise DocumentError("duplicate cone in document")
        cones.append(cone)
        seen.add(cone)
    raw_data = obj.get("lattice_data")
    if not isinstance(raw_data, list):
        raise DocumentError("lattice_data must be a list")
    data = {}
    for entry in raw_data:
        if not isinstance(entry, dict):
            raise DocumentError("each lattice datum must be an object")
        idx = _dec_int(entry.get("cone_index"))
        if not 0 <= idx < len(cones):
            raise DocumentError(f"cone_index {idx} out of range")
        if cones[idx] in data:
            raise DocumentError(f"duplicate lattice datum for cone {idx}")
        gens = _dec_matrix_rows(entry.get("generators", []), group.ncoords)
        data[cones[idx]] = LatticeDatum.from_generators(group, gens)
    missing = [i for i, c in enumerate(cones) if c not in data]
    if missing:
        raise DocumentError(f"cones {missing} have no lattice datum")
    return KmFan(group, cones, data)


def hom_to_obj(hom: GroupHom, source_path: str, target_path: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "source_fan": source_path,
        "target_fan": target_path,
        "matrix": [_enc_vector(row) for row in hom.matrix.entries],
    }


def hom_matrix_from_obj(obj) -> List[tuple]:
    _check_header(obj, "hom")
    for key in ("source_fan", "target_fan", "matrix"):
        if key not in obj:
            raise DocumentError(f"hom document is missing {key!r}")
    for key in ("source_fan", "target_fan"):
        if not isinstance(obj[key], str) or "\0" in obj[key]:
            raise DocumentError(f"{key} must be a path string, got {obj[key]!r}")
    return _dec_matrix_rows(obj["matrix"])


def gsfan_to_obj(gs: GsFan) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "lattice": group_to_obj(gs.fan.group),
        "cones": [{"rays": [_enc_vector(r) for r in c.rays]} for c in gs.fan.cones],
        "group": group_to_obj(gs.beta.target),
        "beta": [_enc_vector(row) for row in gs.beta.matrix.entries],
    }


def gsfan_from_obj(obj) -> GsFan:
    _check_header(obj, "GS fan")
    lattice = group_from_obj(obj.get("lattice"))
    if not lattice.is_lattice():
        raise DocumentError("the fan lattice of a GS fan must be torsion-free")
    target = group_from_obj(obj.get("group"))
    cones = list(_dec_cones(obj.get("cones"), lattice.free_rank))
    rows = _dec_matrix_rows(obj.get("beta"), lattice.ncoords)
    if len(rows) != target.ncoords:
        raise DocumentError("beta has the wrong number of rows")
    fan = from_classical(lattice, cones)
    beta = GroupHom(lattice, target, IntMatrix(rows, cols=lattice.ncoords))
    return GsFan(fan, beta)


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace surprises."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc
