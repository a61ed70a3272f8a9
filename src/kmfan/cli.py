"""Command-line front end: JSON in, JSON out, SVG drawings.

Usage:
    kmfan <subcommand> --fan FILE [--fan2 FILE] [--hom FILE] [--cone INDEX]
                       [--point CSV] [--window N] [--out FILE]

Each subcommand is one entry of an ordered table: the flag naming its input
document (--fan, or --hom for a fan morphism), the reader that loads that
document, and the handler that turns it into the result.  The input is read
before any other flag; SUBCOMMANDS is the table's names, in order.

Exit codes: 0 success, 1 validation refusal or precondition failure,
2 malformed input (JSON that does not parse, or a file that is not UTF-8),
a group larger than documents allow (documents.MAX_FREE_RANK,
documents.MAX_TORSION_INVARIANTS), a file that cannot be read or written,
or input too large to compute with (an OverflowError or MemoryError).
All results are deterministic JSON on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Tuple

from . import fans, gsfans
from .abelian import FgaGroup, GroupHom
from .documents import (
    DocumentError,
    dumps,
    fan_from_obj,
    fan_to_obj,
    gsfan_from_obj,
    hom_matrix_from_obj,
    loads,
)
from .drawing import draw_fan_svg
from .errors import InvalidFan, KmFanError, NotFoldable
from .fans import KmFan, KmFanHom, validate_hom
from .intlinalg import IntMatrix


class CliFailure(Exception):
    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a CLI failure instead of writing to stderr."""

    def error(self, message):
        raise CliFailure(2, {"error": "usage", "detail": message})


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise CliFailure(2, {"error": "io", "detail": str(exc)})
    except (DocumentError, UnicodeDecodeError) as exc:
        raise CliFailure(2, {"error": "malformed", "detail": str(exc)})


def _read_document(path: str, decode):
    """decode applied to the JSON document at path; a document it refuses is
    a schema error, and a fan it finds invalid an invalid-fan refusal."""
    obj = _read_json(path)
    try:
        return decode(obj)
    except DocumentError as exc:
        raise CliFailure(2, {"error": "schema", "detail": str(exc)})
    except InvalidFan as exc:
        raise CliFailure(1, {"error": "invalid-fan", "violations": exc.violations})


def _load_fan(path: str) -> KmFan:
    return _read_document(path, fan_from_obj)


def _check_fan(path: str) -> KmFan:
    """The reader of validate: an invalid fan is its {"ok": false} result."""

    def decode(obj) -> KmFan:
        try:
            return fan_from_obj(obj)
        except InvalidFan as exc:
            raise CliFailure(1, {"ok": False, "violations": exc.violations})

    return _read_document(path, decode)


def _read_gsfan(path: str):
    return _read_document(path, gsfan_from_obj)


def _hom_document(obj) -> Tuple[list, str, str]:
    """The matrix rows and the source and target fan paths of a hom document."""
    rows = hom_matrix_from_obj(obj)
    return rows, obj["source_fan"], obj["target_fan"]


def _read_hom(path: str) -> Tuple[KmFan, KmFan, GroupHom]:
    """The source fan, target fan and group map of the hom document at path;
    a matrix that is ragged or does not fit the two groups is a schema error."""
    rows, source_path, target_path = _read_document(path, _hom_document)
    base = os.path.dirname(os.path.abspath(path))
    source = _load_fan(os.path.join(base, source_path))
    target = _load_fan(os.path.join(base, target_path))
    try:
        hom = GroupHom(
            source.group, target.group, IntMatrix(rows, cols=source.group.ncoords)
        )
    except KmFanError as exc:
        raise CliFailure(2, {"error": "schema", "detail": str(exc)})
    return source, target, hom


def _load_hom(path: str) -> KmFanHom:
    source, target, hom = _read_hom(path)
    result = validate_hom(hom, source, target)
    if not isinstance(result, KmFanHom):
        raise CliFailure(1, {
            "error": "invalid-hom",
            "cone": list(result.cone.rays),
            "detail": result.reason,
        })
    return result


def _parse_point(text: Optional[str], length: int) -> tuple:
    if text is None:
        _usage("--point")
    try:
        values = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise CliFailure(2, {"error": "usage", "detail": f"bad integer list {text!r}"})
    if len(values) != length:
        raise CliFailure(2, {
            "error": "usage",
            "detail": f"expected {length} comma-separated integers",
        })
    return values


def _cone_arg(fan: KmFan, index: Optional[int]):
    if index is None:
        _usage("--cone")
    if not 0 <= index < len(fan.cones):
        raise CliFailure(1, {"error": "no-such-cone", "detail": f"index {index} out of range"})
    return fan.cones[index]


def _group_obj(group: FgaGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def _usage(flag: str):
    raise CliFailure(2, {"error": "usage", "detail": f"{flag} is required"})


# -- handlers: (loaded input, parsed arguments) -> result payload ------------


def _info(fan: KmFan, args) -> dict:
    return {
        "group": _group_obj(fan.group),
        "cones": len(fan.cones),
        "maximal_cones": len(fan.maximal_cones()),
        "rays": len(fan.ray_cones()),
        "classical": fans.is_classical(fan),
        "smooth": fans.is_smooth(fan),
        "simplicial": fans.is_simplicial(fan),
        "atoroidal": fans.is_atoroidal(fan),
        "nondegenerate": fans.is_nondegenerate(fan),
    }


def _product(fan: KmFan, args) -> dict:
    other = _load_fan(args.fan2 or _usage("--fan2"))
    return fan_to_obj(fans.product(fan, other)[0])


def _dilate(fan: KmFan, args) -> dict:
    factor = _parse_point(args.point, 1)[0]
    return fan_to_obj(fans.dilate(fan, factor)[0])


def _roots(fan: KmFan, args) -> dict:
    orders = _parse_point(args.point, len(fan.ray_cones()))
    return fan_to_obj(fans.roots(fan, list(orders))[0])


def _inflate(fan: KmFan, args) -> dict:
    source, _, inclusion = _read_hom(args.hom or _usage("--hom"))
    if source != fan:
        raise CliFailure(1, {"error": "precondition", "detail": "--fan must be the hom's source fan"})
    return fan_to_obj(fans.inflate(fan, inclusion)[0])


def _contract(fan: KmFan, args) -> dict:
    _, target, inclusion = _read_hom(args.hom or _usage("--hom"))
    if target != fan:
        raise CliFailure(1, {"error": "precondition", "detail": "--fan must be the hom's target fan"})
    return fan_to_obj(fans.contract(fan, inclusion)[0])


def _support(fan: KmFan, args) -> dict:
    point = _parse_point(args.point, fan.group.ncoords)
    return {
        "fine": fans.support_contains(fan, point),
        "coarse": fans.coarse_support_contains(fan, point[: fan.group.free_rank]),
    }


def _tame(hom: KmFanHom, args) -> dict:
    out = {"semi_tame": fans._tameness(hom)[0], "tame": fans.is_tame(hom)}
    if out["tame"]:
        out["torsor_group"] = _group_obj(fans.torsor_group(hom))
    return out


def _equidim(hom: KmFanHom, args) -> dict:
    equi = fans.is_equidimensional(hom)
    out = {"equidimensional": equi}
    if equi:
        out["reduced_fibers"] = fans.has_reduced_fibers(hom)
    return out


def _isotropy(fan: KmFan, args) -> dict:
    return {"torsion": list(fans.isotropy(fan, _cone_arg(fan, args.cone)).torsion)}


def _strata(fan: KmFan, args) -> dict:
    return {
        "strata": [
            {
                "cone_index": i,
                "torus_rank": s.torus_rank,
                "isotropy": list(s.isotropy.torsion),
                "band": list(s.band.torsion),
            }
            for i, s in enumerate(fans.strata(fan))
        ]
    }


def _local(fan: KmFan, args) -> dict:
    lp = fans.local_presentation(fan, _cone_arg(fan, args.cone))
    return {
        "cone_index": args.cone,
        "lifting": [list(g) for g in lp.lifting.generators()],
        "monoid_generators": [list(g) for g in lp.monoid_generators],
        "stabilizer": _group_obj(lp.stabilizer),
        "action": [list(row) for row in lp.action.matrix.entries],
    }


def _fold(gs, args) -> dict:
    try:
        return fan_to_obj(gsfans.fold(gs)[0])
    except NotFoldable as exc:
        raise CliFailure(1, {"error": "not-foldable", "violations": exc.violations})


def _draw(fan: KmFan, args) -> dict:
    if args.window < 1:
        raise CliFailure(2, {"error": "usage", "detail": "--window must be positive"})
    svg = draw_fan_svg(fan, window=args.window)
    if not args.out:
        return {"svg": svg}
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliFailure(2, {"error": "io", "detail": str(exc)})
    return {"written": args.out, "bytes": len(svg.encode())}


# The input of a subcommand: the flag naming its document and its reader.
_FAN = ("--fan", _load_fan)
_HOM = ("--hom", _load_hom)

# subcommand -> (input, handler), in the order of the usage message
_TABLE = {
    "validate": (("--fan", _check_fan), lambda fan, args: {"ok": True, "violations": []}),
    "info": (_FAN, _info),
    "coarse": (_FAN, lambda fan, args: fan_to_obj(fans.coarse_fan(fan)[0])),
    "rigidify": (_FAN, lambda fan, args: fan_to_obj(fans.rigidify(fan)[0])),
    "star": (_FAN, lambda fan, args: fan_to_obj(fans.star(fan, _cone_arg(fan, args.cone)))),
    "product": (_FAN, _product),
    "roots": (_FAN, _roots),
    "dilate": (_FAN, _dilate),
    "inflate": (_FAN, _inflate),
    "contract": (_FAN, _contract),
    "resolve": (_FAN, lambda fan, args: fan_to_obj(fans.canonical_resolution(fan)[0])),
    "support": (_FAN, _support),
    "proper": (_HOM, lambda hom, args: {"proper": fans.is_proper(hom)}),
    "tame": (_HOM, _tame),
    "representable": (_HOM, lambda hom, args: {"representable": fans.is_representable(hom)}),
    "equidim": (_HOM, _equidim),
    "pi1": (_FAN, lambda fan, args: _group_obj(fans.fundamental_group(fan))),
    "isotropy": (_FAN, _isotropy),
    "strata": (_FAN, _strata),
    "local": (_FAN, _local),
    "fold": (("--fan", _read_gsfan), _fold),
    "unfold": (_FAN, lambda fan, args: fan_to_obj(gsfans.unfold(fan)[0])),
    "unfold-rig": (_FAN, lambda fan, args: fan_to_obj(gsfans.rigidified_unfold(fan)[0])),
    "gs-check": (_FAN, lambda fan, args: {"gs_representable": gsfans.is_gs_representable(fan)}),
    "roundtrip": (_FAN, lambda fan, args: {"roundtrip": gsfans.fold_unfold_roundtrip(fan)}),
    "draw": (_FAN, _draw),
}
SUBCOMMANDS = list(_TABLE)

# Built once; parse_args leaves it unchanged.  It has no -h/--help: a help
# flag is an unknown argument, one usage object like any other.
_PARSER = _Parser(prog="kmfan", add_help=False)
_PARSER.add_argument("subcommand", choices=SUBCOMMANDS)
_PARSER.add_argument("--fan")
_PARSER.add_argument("--fan2")
_PARSER.add_argument("--hom")
_PARSER.add_argument("--cone", type=int)
_PARSER.add_argument("--point")
_PARSER.add_argument("--window", type=int, default=5)
_PARSER.add_argument("--out")


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        payload = _dispatch(_PARSER.parse_args(argv))
    except CliFailure as fail:
        sys.stdout.write(dumps(fail.payload))
        return fail.code
    except KmFanError as exc:
        sys.stdout.write(dumps({"error": "precondition", "detail": str(exc)}))
        return 1
    except (OverflowError, MemoryError) as exc:
        sys.stdout.write(dumps({"error": "too-large", "detail": str(exc) or type(exc).__name__}))
        return 2
    sys.stdout.write(dumps(payload))
    return 0


def _dispatch(args) -> dict:
    (flag, read), handle = _TABLE[args.subcommand]
    return handle(read(getattr(args, flag[2:]) or _usage(flag)), args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
