"""Command-line front end: JSON in, JSON out, SVG drawings.

Usage:
    kmfan <subcommand> --fan FILE [--fan2 FILE] [--hom FILE] [--cone INDEX]
                       [--point CSV] [--window N] [--out FILE]

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
from .errors import InvalidFan, KmFanError
from .fans import KmFan, KmFanHom, validate_hom
from .intlinalg import IntMatrix

SUBCOMMANDS = [
    "validate", "info", "coarse", "rigidify", "star", "product", "roots",
    "dilate", "inflate", "contract", "resolve", "support", "proper", "tame",
    "representable", "equidim", "pi1", "isotropy", "strata", "local", "fold",
    "unfold", "unfold-rig", "gs-check", "roundtrip", "draw",
]


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


def _read_fan(path: str) -> KmFan:
    """The fan document at path; a fan that fails validation raises InvalidFan."""
    obj = _read_json(path)
    try:
        return fan_from_obj(obj)
    except DocumentError as exc:
        raise CliFailure(2, {"error": "schema", "detail": str(exc)})


def _load_fan(path: str) -> KmFan:
    try:
        return _read_fan(path)
    except InvalidFan as exc:
        raise CliFailure(1, {"error": "invalid-fan", "violations": exc.violations})


def _read_hom(path: str) -> Tuple[KmFan, KmFan, GroupHom]:
    """The source fan, target fan and group map of the hom document at path;
    a matrix that is ragged or does not fit the two groups is a schema error."""
    obj = _read_json(path)
    try:
        rows = hom_matrix_from_obj(obj)
    except DocumentError as exc:
        raise CliFailure(2, {"error": "schema", "detail": str(exc)})
    base = os.path.dirname(os.path.abspath(path))
    source = _load_fan(os.path.join(base, obj["source_fan"]))
    target = _load_fan(os.path.join(base, obj["target_fan"]))
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
    return {"free_rank": group.free_rank, "torsion": [int(d) for d in group.torsion]}


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
    cmd = args.subcommand

    if cmd == "validate":
        try:
            _read_fan(args.fan or _usage("--fan"))
        except InvalidFan as exc:
            raise CliFailure(1, {"ok": False, "violations": exc.violations})
        return {"ok": True, "violations": []}

    if cmd == "info":
        fan = _load_fan(args.fan or _usage("--fan"))
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

    if cmd == "coarse":
        fan = _load_fan(args.fan or _usage("--fan"))
        coarse, _ = fans.coarse_fan(fan)
        return fan_to_obj(coarse)

    if cmd == "rigidify":
        fan = _load_fan(args.fan or _usage("--fan"))
        rig, _ = fans.rigidify(fan)
        return fan_to_obj(rig)

    if cmd == "star":
        fan = _load_fan(args.fan or _usage("--fan"))
        cone = _cone_arg(fan, args.cone)
        return fan_to_obj(fans.star(fan, cone))

    if cmd == "product":
        fan = _load_fan(args.fan or _usage("--fan"))
        other = _load_fan(args.fan2 or _usage("--fan2"))
        prod, _, _ = fans.product(fan, other)
        return fan_to_obj(prod)

    if cmd == "roots":
        fan = _load_fan(args.fan or _usage("--fan"))
        orders = _parse_point(args.point, len(fan.ray_cones()))
        rooted, _ = fans.roots(fan, list(orders))
        return fan_to_obj(rooted)

    if cmd == "dilate":
        fan = _load_fan(args.fan or _usage("--fan"))
        factor = _parse_point(args.point, 1)[0]
        dilated, _ = fans.dilate(fan, factor)
        return fan_to_obj(dilated)

    if cmd in ("inflate", "contract"):
        fan = _load_fan(args.fan or _usage("--fan"))
        source, target, inclusion = _read_hom(args.hom or _usage("--hom"))
        if cmd == "inflate":
            if source != fan:
                raise CliFailure(1, {"error": "precondition", "detail": "--fan must be the hom's source fan"})
            result, _ = fans.inflate(fan, inclusion)
        else:
            if target != fan:
                raise CliFailure(1, {"error": "precondition", "detail": "--fan must be the hom's target fan"})
            result, _ = fans.contract(fan, inclusion)
        return fan_to_obj(result)

    if cmd == "resolve":
        fan = _load_fan(args.fan or _usage("--fan"))
        resolved, _ = fans.canonical_resolution(fan)
        return fan_to_obj(resolved)

    if cmd == "support":
        fan = _load_fan(args.fan or _usage("--fan"))
        point = _parse_point(args.point, fan.group.ncoords)
        return {
            "fine": fans.support_contains(fan, point),
            "coarse": fans.coarse_support_contains(fan, point[: fan.group.free_rank]),
        }

    if cmd == "proper":
        hom = _load_hom(args.hom or _usage("--hom"))
        return {"proper": fans.is_proper(hom)}

    if cmd == "tame":
        hom = _load_hom(args.hom or _usage("--hom"))
        semi = fans.is_semi_tame(hom)
        tame = semi and fans.is_tame(hom)
        out = {"semi_tame": semi, "tame": tame}
        if tame:
            out["torsor_group"] = _group_obj(fans.torsor_group(hom))
        return out

    if cmd == "representable":
        hom = _load_hom(args.hom or _usage("--hom"))
        return {"representable": fans.is_representable(hom)}

    if cmd == "equidim":
        hom = _load_hom(args.hom or _usage("--hom"))
        equi = fans.is_equidimensional(hom)
        out = {"equidimensional": equi}
        if equi:
            out["reduced_fibers"] = fans.has_reduced_fibers(hom)
        return out

    if cmd == "pi1":
        fan = _load_fan(args.fan or _usage("--fan"))
        pi1 = fans.fundamental_group(fan)
        return {"free_rank": pi1.free_rank, "torsion": [int(d) for d in pi1.torsion]}

    if cmd == "isotropy":
        fan = _load_fan(args.fan or _usage("--fan"))
        cone = _cone_arg(fan, args.cone)
        return {"torsion": [int(d) for d in fans.isotropy(fan, cone).torsion]}

    if cmd == "strata":
        fan = _load_fan(args.fan or _usage("--fan"))
        return {
            "strata": [
                {
                    "cone_index": i,
                    "torus_rank": s.torus_rank,
                    "isotropy": [int(d) for d in s.isotropy.torsion],
                    "band": [int(d) for d in s.band.torsion],
                }
                for i, s in enumerate(fans.strata(fan))
            ]
        }

    if cmd == "local":
        fan = _load_fan(args.fan or _usage("--fan"))
        cone = _cone_arg(fan, args.cone)
        lp = fans.local_presentation(fan, cone)
        return {
            "cone_index": args.cone,
            "lifting": [list(map(int, g)) for g in lp.lifting.generators()],
            "monoid_generators": [list(map(int, g)) for g in lp.monoid_generators],
            "stabilizer": _group_obj(lp.stabilizer),
            "action": [list(map(int, row)) for row in lp.action.matrix.entries],
        }

    if cmd == "fold":
        obj = _read_json(args.fan or _usage("--fan"))
        try:
            gs = gsfan_from_obj(obj)
        except DocumentError as exc:
            raise CliFailure(2, {"error": "schema", "detail": str(exc)})
        ok, problems = gsfans.is_foldable(gs)
        if not ok:
            raise CliFailure(1, {"error": "not-foldable", "violations": problems})
        folded, _ = gsfans.fold(gs)
        return fan_to_obj(folded)

    if cmd == "unfold":
        fan = _load_fan(args.fan or _usage("--fan"))
        unfolded, _, _ = gsfans.unfold(fan)
        return fan_to_obj(unfolded)

    if cmd == "unfold-rig":
        fan = _load_fan(args.fan or _usage("--fan"))
        rig, _ = gsfans.rigidified_unfold(fan)
        return fan_to_obj(rig)

    if cmd == "gs-check":
        fan = _load_fan(args.fan or _usage("--fan"))
        return {"gs_representable": gsfans.is_gs_representable(fan)}

    if cmd == "roundtrip":
        fan = _load_fan(args.fan or _usage("--fan"))
        return {"roundtrip": gsfans.fold_unfold_roundtrip(fan)}

    if cmd == "draw":
        fan = _load_fan(args.fan or _usage("--fan"))
        if args.window < 1:
            raise CliFailure(2, {"error": "usage", "detail": "--window must be positive"})
        svg = draw_fan_svg(fan, window=args.window)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(svg)
            except OSError as exc:
                raise CliFailure(2, {"error": "io", "detail": str(exc)})
            return {"written": args.out, "bytes": len(svg.encode())}
        return {"svg": svg}

    raise CliFailure(2, {"error": "usage", "detail": f"unknown subcommand {cmd!r}"})


def _usage(flag: str):
    raise CliFailure(2, {"error": "usage", "detail": f"{flag} is required"})


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
