"""Command-line front end.

Subcommands: ``compose`` (fold a motion file into its screw), ``decompose``
(split a screw motion into two plain rotations), ``fit`` (recover the
displacement from tracked points), ``check`` (run the seeded invariant
suite). Output is line-oriented ``key=value`` with 12 significant digits so
scripts can scrape it without a structured-format dependency.

Exit codes: 0 ok, 1 check failure, 2 parse error, 3 the composite motion
is a half turn and has no rotation vector (compose and decompose still print
its screw; fit prints none), 4 degenerate decomposition, 5 non-rigid data,
6 collinear points.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from .compose import compose_displacements
from .core import ZERO, Rotation, Vec3, _unit_components, make_unit
from .errors import (
    CollinearPoints,
    CoplanarPoints,
    DegenerateInput,
    GibbsOverflow,
    NonRigidData,
    ParseError,
    TraceSingular,
    ZeroVector,
)
from .pointfit import Correspondence, check_rigidity, fit_displacement
from .rotation import Displacement, _displacement, _rotation_displacement
from .screw import (
    Screw,
    ScrewKind,
    conjugate_invariant,
    conjugate_pair_decompose,
    screw_from_displacement,
)

if TYPE_CHECKING:
    from .oracle import HomTransform

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE = 2
EXIT_GIBBS_OVERFLOW = 3
EXIT_DEGENERATE = 4
EXIT_NON_RIGID = 5
EXIT_COLLINEAR = 6


# ---------------------------------------------------------------------------
# motion file format


@dataclass(frozen=True, slots=True)
class RotRecord:
    """``rot dx dy dz px py pz angle``: axis direction, axis point, angle."""

    dx: float
    dy: float
    dz: float
    px: float
    py: float
    pz: float
    angle: float


@dataclass(frozen=True, slots=True)
class TransRecord:
    """``trans tx ty tz``: a pure translation."""

    tx: float
    ty: float
    tz: float


MotionRecord = Union[RotRecord, TransRecord]


def parse_motion_file(text: str) -> list[MotionRecord]:
    """Parse motion-file text into records, in file order.

    Raises ParseError (with the 1-based line number) on any malformed line,
    a non-finite number, a rot axis direction of length <= 1e-12 or one
    whose length overflows, and on a file with no records at all.
    """
    records: list[MotionRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            values = list(map(float, args))
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", line=lineno) from None
        if kind == "rot":
            if len(values) != 7:
                raise ParseError(
                    f"rot needs 7 numbers (dx dy dz px py pz angle), got {len(values)}",
                    line=lineno,
                )
            record: MotionRecord = RotRecord(*values)
        elif kind == "trans":
            if len(values) != 3:
                raise ParseError(
                    f"trans needs 3 numbers (tx ty tz), got {len(values)}", line=lineno
                )
            record = TransRecord(*values)
        else:
            raise ParseError(f"unknown record kind {kind!r}", line=lineno)
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite number in {line!r}", line=lineno)
        if kind == "rot":
            # The cut on |axis| of _record_displacement's _unit_components.
            try:
                _unit_components(*values[:3])
            except (ZeroVector, ValueError):
                raise ParseError("rot axis direction is zero or overflows", line=lineno) from None
        records.append(record)
    if not records:
        raise ParseError("no records in motion file", line=0)
    return records


def format_motion_file(records: Sequence[MotionRecord]) -> str:
    """Render records back to text. Full float precision, so parsing the
    output reproduces the records exactly."""
    lines = []
    for rec in records:
        if isinstance(rec, RotRecord):
            nums = (rec.dx, rec.dy, rec.dz, rec.px, rec.py, rec.pz, rec.angle)
            lines.append("rot " + " ".join(f"{x:.17g}" for x in nums))
        else:
            lines.append(f"trans {rec.tx:.17g} {rec.ty:.17g} {rec.tz:.17g}")
    return "\n".join(lines) + "\n"


def _to_radians(angle: float, radians: bool) -> float:
    return angle if radians else math.radians(angle)


def _from_radians(angle: float, radians: bool) -> float:
    return angle if radians else math.degrees(angle)


def _record_displacement(rec: MotionRecord, radians: bool) -> Displacement:
    if isinstance(rec, TransRecord):
        return _displacement(1.0, ZERO, Vec3(rec.tx, rec.ty, rec.tz))
    ax, ay, az = _unit_components(rec.dx, rec.dy, rec.dz)
    return _rotation_displacement(
        Vec3(rec.px, rec.py, rec.pz), ax, ay, az, _to_radians(rec.angle, radians)
    )


def _record_hom(rec: MotionRecord, radians: bool) -> HomTransform:
    from .oracle import hom_from_rotation, hom_from_translation

    if isinstance(rec, TransRecord):
        return hom_from_translation(Vec3(rec.tx, rec.ty, rec.tz))
    axis = make_unit(Vec3(rec.dx, rec.dy, rec.dz))
    return hom_from_rotation(
        Vec3(rec.px, rec.py, rec.pz), axis, _to_radians(rec.angle, radians)
    )


def build_displacement(records: Sequence[MotionRecord], radians: bool) -> Displacement:
    """Fold the records, first record applied first; a half-turn composite
    comes back in half-turn form."""
    acc: Displacement | None = None
    for rec in records:
        step = _record_displacement(rec, radians)
        acc = step if acc is None else compose_displacements(acc, step)
    assert acc is not None
    return acc


def build_hom(records: Sequence[MotionRecord], radians: bool) -> HomTransform:
    """Matrix-path fold of the same records: the oracle's reference for them."""
    from .oracle import IDENTITY_HOM, hom_compose

    acc = IDENTITY_HOM
    for rec in records:
        acc = hom_compose(acc, _record_hom(rec, radians))
    return acc


# ---------------------------------------------------------------------------
# reporting


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_vec(v: Vec3) -> str:
    return ",".join(_fmt(c) for c in v.as_tuple())


def _emit(key: str, value: str) -> None:
    print(f"{key}={value}")


def _emit_rotation(key: str, r: Rotation, radians: bool) -> None:
    _emit(f"{key}.point", _fmt_vec(r.line.point))
    _emit(f"{key}.dir", _fmt_vec(r.line.dir))
    _emit(f"{key}.angle", _fmt(_from_radians(r.angle, radians)))


def _emit_screw(s: Screw, radians: bool) -> None:
    if s.kind is ScrewKind.IDENTITY:
        _emit("kind", "identity")
        _emit("angle", _fmt(0.0))
        _emit("slide", _fmt(0.0))
    elif s.kind is ScrewKind.TRANSLATION:
        _emit("kind", "translation")
        _emit("translation", _fmt_vec(s.translation))
        _emit("angle", _fmt(0.0))
    else:
        _emit("kind", "screw")
        _emit("axis.point", _fmt_vec(s.axis.point))
        _emit("axis.dir", _fmt_vec(s.axis.dir))
        _emit("angle", _fmt(_from_radians(s.theta, radians)))
        _emit("slide", _fmt(s.slide))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_failure(exc: ParseError) -> int:
    _emit("error", "parse")
    _emit("error.line", str(exc.line if exc.line is not None else 0))
    _emit("error.message", str(exc))
    return EXIT_PARSE


def _failure(kind: str, message: object, code: int) -> int:
    _emit("error", kind)
    _emit("error.message", str(message))
    return code


# ---------------------------------------------------------------------------
# subcommands


def _motion_screw(args) -> int | tuple[Screw, Vec3 | None, Vec3]:
    """(screw, q, delta) of the motion file, or the exit code of a reported
    parse, I/O or range failure. q is None for a half turn, which has no
    rotation vector."""
    try:
        records = parse_motion_file(_read_text(args.file))
    except ParseError as exc:
        return _parse_failure(exc)
    except OSError as exc:
        return _failure("io", exc, EXIT_PARSE)
    try:
        D = build_displacement(records, args.radians)
        screw = screw_from_displacement(D)
        q = D.q.as_vec3()
    except GibbsOverflow:
        q = None
    except ValueError as exc:  # a sum or product of finite numbers overflows
        return _failure("range", exc, EXIT_PARSE)
    return screw, q, D.delta


def cmd_compose(args) -> int:
    folded = _motion_screw(args)
    if isinstance(folded, int):
        return folded
    screw, q, delta = folded
    if q is None:
        _emit("gibbs", "overflow")
        _emit_screw(screw, args.radians)
        _emit("delta", _fmt_vec(delta))
        return EXIT_GIBBS_OVERFLOW
    _emit_screw(screw, args.radians)
    _emit("q", _fmt_vec(q))
    _emit("delta", _fmt_vec(delta))
    return EXIT_OK


def cmd_decompose(args) -> int:
    folded = _motion_screw(args)
    if isinstance(folded, int):
        return folded
    screw, q, _ = folded
    if q is None:
        _emit("gibbs", "overflow")
        _emit_screw(screw, args.radians)
        return EXIT_GIBBS_OVERFLOW

    if args.thetaB is None:
        theta_b = math.pi / 2.0  # 90 degrees, whichever unit is active
    else:
        theta_b = _to_radians(args.thetaB, args.radians)
    psi = _to_radians(args.psi, args.radians)
    if screw.kind is not ScrewKind.GENERAL:
        _emit("degenerate", "true")
        _emit("degenerate.reason", f"composite is {screw.kind.name.lower()}, not a screw")
        return EXIT_DEGENERATE
    try:
        pair = conjugate_pair_decompose(screw, theta_b, psi)
    except DegenerateInput as exc:
        _emit("degenerate", "true")
        _emit("degenerate.reason", str(exc))
        return EXIT_DEGENERATE
    except ValueError as exc:
        return _failure("range", exc, EXIT_PARSE)
    if pair.degenerate:
        _emit("degenerate", "true")
        _emit(
            "degenerate.reason",
            "slide is zero: the motion is the single rotation printed as lineA",
        )
        _emit_rotation("lineA", pair.line_a, args.radians)
        return EXIT_DEGENERATE

    try:
        inv = conjugate_invariant(pair.line_a, pair.line_b)
    except ValueError as exc:  # turning a line point far out overflows
        return _failure("range", exc, EXIT_PARSE)
    _emit_rotation("lineA", pair.line_a, args.radians)
    _emit_rotation("lineB", pair.line_b, args.radians)
    _emit("invariant.lhs", _fmt(inv.lhs))
    _emit("invariant.rhs", _fmt(inv.rhs))
    _emit("invariant.difference", _fmt(abs(inv.lhs - inv.rhs)))
    return EXIT_OK


def _parse_csv(path: str) -> list[Correspondence]:
    corrs: list[Correspondence] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:  # optional header
                    continue
                raise ParseError(f"non-numeric row: {row}", line=lineno) from None
            if len(values) != 6:
                raise ParseError(
                    f"row needs 6 numbers (x,y,z,xp,yp,zp), got {len(values)}",
                    line=lineno,
                )
            if not all(map(math.isfinite, values)):
                raise ParseError(f"non-finite number in row: {row}", line=lineno)
            corrs.append(
                Correspondence(Vec3(*values[:3]), Vec3(*values[3:]))
            )
    return corrs


def cmd_fit(args) -> int:
    try:
        corrs = _parse_csv(args.csv)
    except ParseError as exc:
        return _parse_failure(exc)
    except OSError as exc:
        return _failure("io", exc, EXIT_PARSE)
    if len(corrs) < 3:
        msg = f"need at least 3 correspondences, got {len(corrs)}"
        return _parse_failure(ParseError(msg, line=0))

    # ValueError: a coordinate difference, cross product or distance overflows.
    try:
        fit = fit_displacement(corrs[0], corrs[1], corrs[2])
    except (CollinearPoints, ZeroVector) as exc:
        return _failure("collinear", exc, EXIT_COLLINEAR)
    except NonRigidData as exc:
        return _failure("non-rigid", exc, EXIT_NON_RIGID)
    except TraceSingular as exc:
        return _failure("gibbs-overflow", exc, EXIT_GIBBS_OVERFLOW)
    except ValueError as exc:
        return _failure("range", exc, EXIT_PARSE)

    _emit("q", _fmt_vec(fit.q.as_vec3()))
    _emit("delta", _fmt_vec(fit.delta))
    _emit_screw(screw_from_displacement(fit), args.radians)

    if len(corrs) >= 4:
        try:
            report = check_rigidity(corrs)
        except CoplanarPoints as exc:
            _emit("rigidity.coplanar", "true")
            if exc.rigid is not None:
                _emit("rigidity.rigid", "true" if exc.rigid else "false")
                if not exc.rigid:
                    return _failure("non-rigid", exc, EXIT_NON_RIGID)
            return EXIT_OK
        except ValueError as exc:
            return _failure("range", exc, EXIT_PARSE)
        _emit("rigidity.rigid", "true" if report.rigid else "false")
        _emit("rigidity.proper", "true" if report.proper else "false")
        if not report.rigid:
            return _failure(
                "non-rigid", "pairwise distances are not preserved", EXIT_NON_RIGID
            )
        if not report.proper:
            return _failure(
                "improper",
                "data is a mirror image: no rotation-plus-translation produces it",
                EXIT_NON_RIGID,
            )
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import TOL_REFERENCE, run_all

    tol = TOL_REFERENCE if args.tol is None else args.tol
    results = run_all(seed=args.seed, samples=args.samples, tol=tol)
    failed = 0
    for res in results:
        _emit(f"check.{res.name}", "pass" if res.passed else "FAIL")
        if not res.passed:
            failed += 1
            _emit(f"check.{res.name}.samples", str(res.samples))
            _emit(f"check.{res.name}.sample", res.detail)
    _emit("checks.total", str(len(results)))
    _emit("checks.failed", str(failed))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


def _add_global_flags(parser: argparse.ArgumentParser, *, root: bool) -> None:
    # The same flags live on the root parser (with real defaults) and on each
    # subparser (defaulting to SUPPRESS), so both `--seed 7 check` and
    # `check --seed 7` parse; a flag after the subcommand wins.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--tol",
        type=float,
        default=None if root else suppress,
        help="comparison tolerance for check (default 1e-9); other subcommands ignore it",
    )
    parser.add_argument(
        "--radians",
        action="store_true",
        default=False if root else suppress,
        help="angles in files, flags, and reports are radians (default degrees)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0 if root else suppress,
        help="seed for the check generator (default 0)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=10000 if root else suppress,
        help="sample budget for check (default 10000)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screwalgebra",
        description="Exact screw algebra of rigid-body displacements.",
    )
    _add_global_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compose = sub.add_parser("compose", help="fold a motion file into its screw")
    p_compose.add_argument("file", help="motion file (rot/trans records)")
    _add_global_flags(p_compose, root=False)
    p_compose.set_defaults(func=cmd_compose)

    p_dec = sub.add_parser(
        "decompose", help="split a screw motion into two plain rotations"
    )
    p_dec.add_argument("file", help="motion file (rot/trans records)")
    _add_global_flags(p_dec, root=False)
    p_dec.add_argument(
        "--thetaB",
        type=float,
        default=None,
        help="angle of the second rotation family member (default a quarter turn)",
    )
    p_dec.add_argument(
        "--psi",
        type=float,
        default=0.0,
        help="azimuth selecting the family member (default 0)",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_fit = sub.add_parser("fit", help="recover the displacement from tracked points")
    p_fit.add_argument("csv", help="CSV of x,y,z,xp,yp,zp rows (header optional)")
    _add_global_flags(p_fit, root=False)
    p_fit.set_defaults(func=cmd_fit)

    p_check = sub.add_parser("check", help="run the seeded invariant suite")
    _add_global_flags(p_check, root=False)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
