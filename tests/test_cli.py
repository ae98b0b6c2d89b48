"""Command-line front end: parsing, reports, and exit codes."""

from __future__ import annotations

import math
import random

import pytest

from screwalgebra import Displacement, GibbsVector, Vec3, apply_displacement, make_unit
from screwalgebra.cli import (
    ParseError,
    RotRecord,
    TransRecord,
    build_hom,
    format_motion_file,
    main,
    parse_motion_file,
)
from screwalgebra.oracle import hom_compose, hom_from_rotation, screw_from_hom_bruteforce
from screwalgebra.screw import Screw, ScrewKind
from _util import xyz


def run_cli(capsys, *argv: str) -> tuple[int, dict[str, str]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    report = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return code, report


def vec(report: dict[str, str], key: str) -> tuple[float, ...]:
    return tuple(float(part) for part in report[key].split(","))


def assert_screw_report(report: dict[str, str], s: Screw) -> None:
    """The report holds exactly the screw's printed fields (degrees), each to 1e-9."""
    if s.kind is ScrewKind.TRANSLATION:
        assert set(report) == {"kind", "translation", "angle"}
        assert report["kind"] == "translation"
        assert vec(report, "translation") == pytest.approx(xyz(s.translation), abs=1e-9)
        assert float(report["angle"]) == 0.0
        return
    assert s.kind is ScrewKind.GENERAL
    assert set(report) == {"kind", "axis.point", "axis.dir", "angle", "slide"}
    assert report["kind"] == "screw"
    assert vec(report, "axis.point") == pytest.approx(xyz(s.axis.point), abs=1e-9)
    assert vec(report, "axis.dir") == pytest.approx(xyz(s.axis.dir), abs=1e-9)
    assert float(report["angle"]) == pytest.approx(math.degrees(s.theta), abs=1e-9)
    assert float(report["slide"]) == pytest.approx(s.slide, abs=1e-9)


# Motion files whose composite is a half turn, which has no rotation vector.
HALF_TURN_FILES = {
    "lone-180": "rot 0 0 1 0 0 0 180\n",
    "lone-minus-180": "rot 0 -2 1  3 0 1  -180\n",
    "180-then-trans": "rot 0 0 1  1 2 0  180\ntrans 0.5 -1 3\n",
    "a-plus-complement": "rot 2 -1 2  1 1 0  35\nrot 2 -1 2  1 1 0  145\n",
}

# Motion files with a half-turn record whose composite is no half turn.
HALF_TURN_RECORD_FILES = {
    "mid-chain-180": (
        "rot 1 0 0  0 0 0  30\nrot 0.3 -0.4 1  1 0 2  180\n"
        "rot 0 1 0  0 0 2  45\ntrans 1 2 3\n"
    ),
    # Two half turns about parallel axes: a translation.
    "180-then-minus-180": "rot 0 1 1  0 0 0  180\nrot 0 1 1  2 -1 1  -180\n",
}

PROBES = [Vec3(1.5, -2.0, 0.5), Vec3(-3.0, 1.0, 2.0), Vec3(0.0, 0.0, 0.0)]


def assert_motion_report(command: str, code: int, report: dict[str, str], H) -> None:
    """compose or decompose printed the motion H: every field agrees with the
    oracle to 1e-9, and exit 3 goes with gibbs=overflow."""
    assert (report.pop("gibbs", None) == "overflow") == (code == 3)
    expected = screw_from_hom_bruteforce(H)
    if command == "compose" or code == 3:
        if command == "compose":
            assert vec(report, "delta") == pytest.approx(xyz(H.d), abs=1e-9)
            del report["delta"]
        if code == 0:
            D = Displacement(GibbsVector(*vec(report, "q")), Vec3(*xyz(H.d)))
            for p in PROBES:
                assert xyz(apply_displacement(D, p)) == pytest.approx(xyz(H.apply(p)), abs=1e-9)
            del report["q"]
        assert_screw_report(report, expected)
    elif code == 4:
        assert report["degenerate"] == "true"
        assert expected.kind is not ScrewKind.GENERAL or abs(expected.slide) <= 1e-9
    else:
        assert code == 0
        lines = [
            hom_from_rotation(
                Vec3(*vec(report, f"{name}.point")),
                make_unit(Vec3(*vec(report, f"{name}.dir"))),
                math.radians(float(report[f"{name}.angle"])),
            )
            for name in ("lineA", "lineB")
        ]
        pair = hom_compose(*lines)
        for p in PROBES:
            assert xyz(pair.apply(p)) == pytest.approx(xyz(H.apply(p)), abs=1e-9)
        assert float(report["invariant.difference"]) <= 1e-9


def _near_half_turn_files() -> list[tuple[str, bool]]:
    """(motion file, composite is a half turn) for turns within 1e-3 rad of a
    half turn; the offset 0 gives exactly 180 degrees."""
    rng = random.Random(29)
    files = []
    for offset in (1e-3, 1e-5, 1e-7, 1e-9, 0.0):
        angle = 180.0 - math.degrees(offset)
        for _ in range(3):
            d = " ".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(3))
            p, p2, t = (" ".join(f"{rng.uniform(-3, 3):.4f}" for _ in range(3)) for _ in range(3))
            a = rng.uniform(20.0, 160.0)
            files.append((f"rot {d}  {p}  {angle!r}\ntrans {t}\n", offset == 0.0))
            # Two turns about parallel axes whose angles add up to the turn.
            files.append(
                (f"rot {d}  {p}  {a!r}\nrot {d}  {p2}  {angle - a!r}\ntrans {t}\n", offset == 0.0)
            )
    return files


class TestMotionFileParsing:
    def test_records_comments_and_blanks(self):
        text = """
        # heading comment
        rot 0 0 1  0 0 0  90

        trans 1 2 3   # trailing comment
        """
        records = parse_motion_file(text)
        assert records == [
            RotRecord(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 90.0),
            TransRecord(1.0, 2.0, 3.0),
        ]

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_motion_file("# only a comment\n")
        assert exc.value.line == 0

    def test_unknown_keyword_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_motion_file("rot 0 0 1 0 0 0 90\nspin 1 2 3\n")
        assert exc.value.line == 2

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_motion_file("trans 1 2\n")
        assert exc.value.line == 1

    def test_print_parse_roundtrip(self):
        records = [
            RotRecord(0.1, -0.2, 0.97, 1.5, 0.0, -2.0, 33.75),
            TransRecord(1e-17, 2.5, -3.125),
            RotRecord(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -179.999),
        ]
        assert parse_motion_file(format_motion_file(records)) == records


class TestCompose:
    def test_turn_then_lift(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 0 0 1 0 0 0 90\ntrans 0 0 3\n")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 0
        assert report["kind"] == "screw"
        assert vec(report, "axis.point") == pytest.approx((0, 0, 0), abs=1e-9)
        assert vec(report, "axis.dir") == pytest.approx((0, 0, 1), abs=1e-9)
        assert float(report["angle"]) == pytest.approx(90.0, abs=1e-9)
        assert float(report["slide"]) == pytest.approx(3.0, abs=1e-9)
        assert vec(report, "q") == pytest.approx((0, 0, 2), abs=1e-9)

    def test_two_skewless_quarter_turns(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 1 0 0 0 0 0 90\nrot 0 1 0 0 0 0 90\n")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 0
        assert float(report["angle"]) == pytest.approx(120.0, abs=1e-9)
        root3 = math.sqrt(3.0)
        assert vec(report, "axis.dir") == pytest.approx(
            (1 / root3, 1 / root3, -1 / root3), abs=1e-9
        )
        assert float(report["slide"]) == pytest.approx(0.0, abs=1e-9)

    def test_empty_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 2
        assert report["error"] == "parse"

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 0 0 1 0 0 0 90\nrot 1 2\n")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 2
        assert report["error.line"] == "2"

    @pytest.mark.parametrize(
        "record",
        ["rot 0 0 0 0 0 0 90", "rot 0 0 1 0 0 0 nan", "trans inf 0 0"],
        ids=["zero-axis", "nan-angle", "inf-translation"],
    )
    def test_unusable_record_is_a_parse_error(self, record, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(f"rot 0 0 1 0 0 0 90\n{record}\n")
        for command in ("compose", "decompose"):
            code, report = run_cli(capsys, command, str(src))
            assert code == 2
            assert report["error"] == "parse"
            assert report["error.line"] == "2"

    @pytest.mark.parametrize("text", HALF_TURN_FILES.values(), ids=HALF_TURN_FILES.keys())
    def test_half_turn_overflows_but_screw_is_printed(self, text, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(text)
        H = build_hom(parse_motion_file(text), False)
        expected = screw_from_hom_bruteforce(H)
        for command in ("compose", "decompose"):
            code, report = run_cli(capsys, command, str(src))
            assert code == 3
            assert report.pop("gibbs") == "overflow"
            if command == "compose":
                assert vec(report, "delta") == pytest.approx(xyz(H.d), abs=1e-9)
                del report["delta"]
            assert_screw_report(report, expected)

    @pytest.mark.parametrize(
        "text", HALF_TURN_RECORD_FILES.values(), ids=HALF_TURN_RECORD_FILES.keys()
    )
    def test_half_turn_record_in_a_regular_motion(self, text, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(text)
        H = build_hom(parse_motion_file(text), False)
        for command in ("compose", "decompose"):
            code, report = run_cli(capsys, command, str(src))
            assert code in ((0,) if command == "compose" else (0, 4))
            assert_motion_report(command, code, report, H)

    def test_turns_near_a_half_turn_agree_with_the_oracle(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        for text, half_turn in _near_half_turn_files():
            src.write_text(text)
            H = build_hom(parse_motion_file(text), False)
            for command in ("compose", "decompose"):
                code, report = run_cli(capsys, command, str(src))
                assert code == (3 if half_turn else 0), text
                assert_motion_report(command, code, report, H)

    def test_angle_past_a_half_turn_is_reduced(self, tmp_path, capsys):
        reports = []
        for angle in ("270", "-90"):
            src = tmp_path / "m.txt"
            src.write_text(f"rot 0 0 1 0 0 0 {angle}\n")
            assert main(["compose", str(src)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "command, text",
        [
            ("compose", "trans 1e308 0 0\ntrans 1e308 0 0\n"),
            ("compose", "rot 0 0 1 1e308 1e308 0 90\n"),
        ],
        ids=["fold-sum", "axis-point"],
    )
    def test_overflowing_numbers_exit_2(self, command, text, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(text)
        code, report = run_cli(capsys, command, str(src))
        assert code == 2
        assert report["error"] == "range"
        assert report["error.message"].startswith("non-finite component")

    def test_half_turn_with_a_huge_slide_is_printed(self, tmp_path, capsys):
        # v x delta overflows on the way to the axis point; the point itself fits.
        src = tmp_path / "m.txt"
        src.write_text("rot 0 1 1 0 0 0 180\ntrans 0 1.5e308 -1.5e308\n")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 3
        assert report["gibbs"] == "overflow"
        assert (report["kind"], float(report["angle"]), float(report["slide"])) == (
            "screw", 180.0, 0.0
        )
        x, y, z = vec(report, "axis.point")
        assert (abs(x) < 1e292, y, z) == (True, 7.5e307, -7.5e307)
        assert vec(report, "axis.dir") == pytest.approx((0.0, 0.5**0.5, 0.5**0.5), abs=1e-12)
        assert vec(report, "delta") == (0.0, 1.5e308, -1.5e308)

    def test_translation_too_short_to_square(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("trans 1e-170 0 0\n")
        code, report = run_cli(capsys, "compose", str(src))
        assert code == 0
        assert (report["kind"], report["translation"]) == ("translation", "1e-170,0,0")

    def test_axis_too_long_to_square(self, tmp_path, capsys):
        reports = []
        for axis in ("1e200 0 0", "1 0 0"):
            src = tmp_path / "m.txt"
            src.write_text(f"rot {axis} 0 0 0 90\n")
            assert main(["compose", str(src)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_radians_flag(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(f"rot 0 0 1 0 0 0 {math.pi / 2}\ntrans 0 0 2\n")
        code, report = run_cli(capsys, "compose", "--radians", str(src))
        assert code == 0
        assert float(report["angle"]) == pytest.approx(math.pi / 2, abs=1e-9)
        assert float(report["slide"]) == pytest.approx(2.0, abs=1e-9)

    def test_flags_accepted_before_subcommand(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text(f"rot 0 0 1 0 0 0 {math.pi / 2}\n")
        code, report = run_cli(capsys, "--radians", "compose", str(src))
        assert code == 0
        assert float(report["angle"]) == pytest.approx(math.pi / 2, abs=1e-9)


class TestDecompose:
    def test_quarter_screw_with_slide(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 0 0 1 0 0 0 90\ntrans 0 0 2\n")
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 0
        root3 = math.sqrt(3.0)
        assert vec(report, "lineA.dir") == pytest.approx(
            (1 / root3, -1 / root3, 1 / root3), abs=1e-9
        )
        assert float(report["lineA.angle"]) == pytest.approx(120.0, abs=1e-9)
        assert vec(report, "lineB.point") == pytest.approx((0, 1, 1), abs=1e-9)
        assert vec(report, "lineB.dir") == pytest.approx((1, 0, 0), abs=1e-9)
        assert float(report["lineB.angle"]) == pytest.approx(-90.0, abs=1e-9)
        assert float(report["invariant.difference"]) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_invariant_sides_printed(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 0 0 1 0 0 0 90\ntrans 0 0 2\n")
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 0
        expected = math.sqrt(2.0) / 2.0
        assert float(report["invariant.lhs"]) == pytest.approx(expected, abs=1e-9)
        assert float(report["invariant.rhs"]) == pytest.approx(expected, abs=1e-9)

    def test_slide_too_long_to_square_still_splits(self, tmp_path, capsys):
        # |slide|^2 overflows on the way to the couple; the couple itself fits.
        text = "rot 1 1 1 0 0 0 30\ntrans 1e300 0 0\n"
        src = tmp_path / "m.txt"
        src.write_text(text)
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 0
        H = build_hom(parse_motion_file(text), False)
        pair = hom_compose(
            *(
                hom_from_rotation(
                    Vec3(*vec(report, f"{name}.point")),
                    make_unit(Vec3(*vec(report, f"{name}.dir"))),
                    math.radians(float(report[f"{name}.angle"])),
                )
                for name in ("lineA", "lineB")
            )
        )
        for p in PROBES:
            assert xyz(pair.apply(p)) == pytest.approx(xyz(H.apply(p)), rel=0, abs=1e-9 * 1e300)
        assert float(report["invariant.difference"]) <= 1e-9 * float(report["invariant.lhs"])

    def test_pure_translation_is_degenerate(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("trans 1 2 3\n")
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 4
        assert report["degenerate"] == "true"

    def test_zero_slide_is_degenerate(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("rot 1 0 0 0 0 0 90\nrot 0 1 0 0 0 0 90\n")
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 4
        assert report["degenerate"] == "true"
        assert "lineA.dir" in report

    def test_rounding_slide_far_from_the_origin_is_degenerate(self, tmp_path, capsys):
        # A pure rotation whose axis passes 3e11 from the origin: its slide
        # is rounding of that size (4e-6), not a screw's slide.
        text = (
            "rot 0.031387 1.629743 -0.098972  "
            "-3.71077e+10 -2.46469e+10 2.75269e+11  294.424706\n"
        )
        src = tmp_path / "m.txt"
        src.write_text(text)
        code, report = run_cli(capsys, "decompose", str(src))
        assert code == 4
        assert report["degenerate"] == "true"
        line_a = hom_from_rotation(
            Vec3(*vec(report, "lineA.point")),
            make_unit(Vec3(*vec(report, "lineA.dir"))),
            math.radians(float(report["lineA.angle"])),
        )
        H = build_hom(parse_motion_file(text), False)
        for p in PROBES:
            assert xyz(line_a.apply(p)) == pytest.approx(xyz(H.apply(p)), rel=0, abs=1e-9 * 3e11)


class TestFit:
    def test_recovers_turn_with_lift(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text(
            "x,y,z,xp,yp,zp\n"
            "0,0,0,0,0,1\n"
            "1,0,0,0,1,1\n"
            "0,1,0,-1,0,1\n"
        )
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 0
        assert vec(report, "q") == pytest.approx((0, 0, 2), abs=1e-9)
        assert vec(report, "delta") == pytest.approx((0, 0, 1), abs=1e-9)
        assert float(report["angle"]) == pytest.approx(90.0, abs=1e-9)

    def test_headerless_csv(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,1\n1,0,0,0,1,1\n0,1,0,-1,0,1\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 0
        assert vec(report, "q") == pytest.approx((0, 0, 2), abs=1e-9)

    def test_four_rows_report_rigidity(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text(
            "0,0,0,0,0,1\n1,0,0,0,1,1\n0,1,0,-1,0,1\n2,2,0,-2,2,1\n"
        )
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 0
        assert report["rigidity.rigid"] == "true"

    def test_mirrored_tetrahedron_flagged_improper(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text(
            "0,0,0,0,0,0\n1,0,0,1,0,0\n0,1,0,0,1,0\n0,0,1,0,0,-1\n"
        )
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 5
        assert report["rigidity.proper"] == "false"
        assert report["error"] == "improper"

    def test_translated_points_give_a_translation(self, tmp_path, capsys):
        # The frame fit leaves a rotation vector of rounding size (~1e-16).
        t = (-3.79, -1.67, 2.21)
        points = [
            (-2.67, -2.69, -2.81), (-0.4, -2.1, -4.79), (3.38, 0.56, 1.42), (-3.14, 4.93, 3.6)
        ]
        rows = [(*p, *(a + b for a, b in zip(p, t))) for p in points]
        src = tmp_path / "points.csv"
        src.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 0
        assert report["kind"] == "translation"
        assert vec(report, "translation") == pytest.approx(t, abs=1e-9)
        assert report["rigidity.proper"] == "true"

    def test_collinear_points_exit_6(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,0\n1,0,0,1,0,0\n2,0,0,2,0,0\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 6
        assert report["error"] == "collinear"

    def test_stretched_data_exit_5(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,0\n1,0,0,2,0,0\n0,1,0,0,1,0\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 5
        assert report["error"] == "non-rigid"

    def test_too_few_rows_exit_2(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,1\n1,0,0,0,1,1\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 2

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,1\n1,0,oops,0,1,1\n0,1,0,-1,0,1\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 2
        assert report["error.line"] == "2"

    def test_non_finite_row_reports_line(self, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text("0,0,0,0,0,1\n1,0,nan,0,1,1\n0,1,0,-1,0,1\n")
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 2
        assert report["error"] == "parse"
        assert report["error.line"] == "2"

    @pytest.mark.parametrize(
        "rows",
        [
            # The base differences overflow: fit_displacement raises.
            "1e308,-1e308,1e308,1e308,-1e308,1e308\n"
            "-1e308,1e308,1e308,-1e308,1e308,1e308\n"
            "1e308,1e308,-1e308,1e308,1e308,-1e308\n",
            # Only the difference of the last two rows overflows: check_rigidity raises.
            "0,0,0,0,0,0\n1,0,0,1,0,0\n0,1,0,0,1,0\n"
            "0,0,1e308,0,0,1e308\n0,0,-1e308,0,0,-1e308\n",
        ],
        ids=["fit", "rigidity"],
    )
    def test_overflowing_coordinates_exit_2(self, rows, tmp_path, capsys):
        src = tmp_path / "points.csv"
        src.write_text(rows)
        code, report = run_cli(capsys, "fit", str(src))
        assert code == 2
        assert report["error"] == "range"
        assert "non-finite" in report["error.message"]

    @pytest.mark.parametrize("flip, expected", [(1, 0), (-1, 5)], ids=["proper", "mirrored"])
    def test_tetrahedron_too_large_to_square_fits(self, flip, expected, tmp_path, capsys):
        # Every squared difference overflows; the differences and distances do not.
        corners = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]
        src = tmp_path / "points.csv"
        rows = (f"{x}e200,{y}e200,{z}e200,{x}e200,{y}e200,{flip * z}e200\n" for x, y, z in corners)
        src.write_text("".join(rows))
        code, report = run_cli(capsys, "fit", str(src))
        assert code == expected
        assert report["rigidity.rigid"] == "true"
        assert report["rigidity.proper"] == ("true" if flip == 1 else "false")


# (subcommand and flags, input text, exit code, report lines required, keys absent)
EXIT_BRANCHES = {
    # A half turn about z: the fit has no rotation vector and prints no screw.
    "fit-half-turn": (
        ["fit"], "0,0,0,0,0,0\n1,0,0,-1,0,0\n0,1,0,0,-1,0\n",
        3, {"error": "gibbs-overflow"}, {"q", "kind"},
    ),
    "fit-stretched-fourth": (
        ["fit"], "0,0,0,0,0,0\n1,0,0,1,0,0\n0,1,0,0,1,0\n0,0,1,0,0,2\n",
        5, {"rigidity.rigid": "false", "error": "non-rigid"}, set(),
    ),
    "fit-coplanar-stretched-fourth": (
        ["fit"], "0,0,0,0,0,0\n1,0,0,1,0,0\n0,1,0,0,1,0\n1,1,0,2,2,0\n",
        5, {"rigidity.coplanar": "true", "rigidity.rigid": "false", "error": "non-rigid"}, set(),
    ),
    # A couple angle of a half turn has no rotation pair.
    "decompose-couple-half-turn": (
        ["decompose", "--thetaB", "180"], "rot 0 0 1 0 0 0 90\ntrans 0 0 2\n",
        4, {"degenerate": "true"}, {"lineA.dir"},
    ),
    "motion-non-numeric": (
        ["compose"], "rot a 0 1 0 0 0 90\n", 2, {"error": "parse", "error.line": "1"}, {"kind"},
    ),
    "csv-five-numbers": (
        ["fit"], "0,0,0,0,0\n1,0,0,1,0,0\n0,1,0,0,1,0\n",
        2, {"error": "parse", "error.line": "1"}, {"q"},
    ),
}


@pytest.mark.parametrize("name", EXIT_BRANCHES)
def test_exit_code_branches(name, tmp_path, capsys):
    argv, text, expected, lines, absent = EXIT_BRANCHES[name]
    src = tmp_path / "input"
    src.write_text(text)
    code, report = run_cli(capsys, argv[0], str(src), *argv[1:])
    assert code == expected
    assert {key: report.get(key) for key in lines} == lines
    assert not absent & report.keys()


def test_decompose_family_member_reproduces_the_motion(tmp_path, capsys):
    text = "rot 1 2 2  0.5 -1 0  70\ntrans 0.3 -0.2 1.5\n"
    src = tmp_path / "m.txt"
    src.write_text(text)
    code, report = run_cli(capsys, "decompose", str(src), "--thetaB", "60", "--psi", "30")
    assert code == 0
    assert float(report["lineB.angle"]) == pytest.approx(-60.0, abs=1e-9)
    assert_motion_report("decompose", code, report, build_hom(parse_motion_file(text), False))


class TestCheck:
    def test_small_budget_passes(self, capsys):
        code, report = run_cli(capsys, "check", "--samples", "10")
        assert code == 0
        assert report["checks.failed"] == "0"

    def test_reports_are_deterministic(self, capsys):
        main(["check", "--samples", "10", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", "--samples", "10", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
        # With no --tol the report is the one at the documented default,
        # whichever side of the subcommand the flag is written on.
        for argv in (
            ["--tol", "1e-9", "check", "--samples", "10", "--seed", "3"],
            ["check", "--samples", "10", "--seed", "3", "--tol", "1e-9"],
        ):
            main(argv)
            assert capsys.readouterr().out == first

    def test_hostile_tolerance_fails_loudly(self, capsys):
        code, report = run_cli(
            capsys, "check", "--samples", "10", "--tol", "1e-30"
        )
        assert code == 1
        assert int(report["checks.failed"]) > 0
