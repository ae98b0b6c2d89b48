"""The four benchmark workloads: input generators, timed operations, checks.

Each workload object is built from the seed alone and offers

- ``make()``: the next input, drawn from the seeded generator (untimed);
- ``run(inp)``: the timed operation, calling the library through its public
  functions exactly as the command line does;
- ``verify(inp, out)``: whether the answer is correct (untimed).

An operation that raises where no exception is expected returns the
exception as its outcome and fails verification.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import reference as ref
from screwalgebra import cli, oracle, pointfit, screw
from screwalgebra.core import Vec3
from screwalgebra.errors import (
    AngleAtPi,
    GibbsOverflow,
    NonRigidData,
    ResultantHalfTurn,
    ScrewAlgebraError,
    TraceSingular,
)
from screwalgebra.pointfit import Correspondence
from screwalgebra.screw import ScrewKind

# Largest image error a correct answer may show, relative to 1 + |image|.
TOL = 1e-9

# The exceptions that cmd_compose and cmd_decompose answer through the
# matrix path ("half-turn overflow", exit code 3).
OVERFLOW = (GibbsOverflow, AngleAtPi, ResultantHalfTurn, TraceSingular)

RAISED = "raised"

# fit_displacement raises TraceSingular when 1 + trace <= 1e-9, that is
# within 2 asin(sqrt(1e-9) / 2) = 3.162e-5 rad of a half turn, although
# every proper rigid motion has a fit. The timed workloads draw no fit
# input whose motion turns within DEFECT_OFFSET (just above that edge) of a
# half turn, so that every operation they time can succeed; the defect is
# measured apart from them, on a fixed set of such inputs
# (near_pi_fail_frac).
DEFECT_OFFSET = 3.2e-5
# Size of that set, and the share of it that is exactly pi, the case users
# type; the rest have offsets log-uniform over [1e-9, DEFECT_OFFSET].
NEAR_PI_SET = 200
EXACT_PI_SHARE = 0.2


def _probes(rng, n=3, span=5.0):
    return [tuple(rng.uniform(-span, span) for _ in range(3)) for _ in range(n)]


def _axis_text(rng):
    while True:
        d = [f"{rng.gauss(0.0, 1.0):.4g}" for _ in range(3)]
        if ref.norm(tuple(map(float, d))) > 1e-3:
            return d


def _motion_text(rng, n_records, rot_share, half_turn_share):
    """Motion-file text, its reference map, and how many records are half turns.

    Numbers are written as a user would type them: a few decimals, and a
    half turn as a bare ``180`` or ``-180``.
    """
    lines, affine, half_turns = [], ref.IDENTITY, 0
    for _ in range(n_records):
        if rng.random() < rot_share:
            d = _axis_text(rng)
            p = [f"{rng.uniform(-5.0, 5.0):.3f}" for _ in range(3)]
            if rng.random() < half_turn_share:
                a = rng.choice(("180", "-180"))
            else:
                a = f"{rng.uniform(-180.0, 180.0):.3f}"
            half_turns += abs(float(a)) == 180.0
            lines.append(" ".join(["rot", *d, *p, a]))
            step = ref.turn_about(
                tuple(map(float, p)), ref.unit(tuple(map(float, d))), math.radians(float(a))
            )
        else:
            t = [f"{rng.uniform(-5.0, 5.0):.3f}" for _ in range(3)]
            lines.append(" ".join(["trans", *t]))
            step = (ref.IDENTITY[0], tuple(map(float, t)))
        affine = ref.compose(affine, step)
    return "\n".join(lines) + "\n", affine, half_turns


def _screw_affine(s):
    if s.kind is ScrewKind.IDENTITY:
        return ref.IDENTITY
    if s.kind is ScrewKind.TRANSLATION:
        return ref.IDENTITY[0], s.translation.as_tuple()
    return ref.screw_map(s.axis.point.as_tuple(), s.axis.dir.as_tuple(), s.theta, s.slide)


def _rotation_affine(r):
    return ref.turn_about(r.line.point.as_tuple(), r.line.dir.as_tuple(), r.angle)


def _random_rotation(rng):
    """A Haar-uniform rotation matrix (normalized Gaussian quaternion)."""
    while True:
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(c * c for c in q))
        if n > 1e-6:
            return ref.quaternion_rotation(*(c / n for c in q))


def _half_turn_offset(R):
    """How far the rotation matrix R is from a half turn: pi minus its angle.

    1 + trace R = 4 cos^2(angle / 2) = 4 sin^2(offset / 2).
    """
    return 2.0 * math.asin(min(1.0, math.sqrt(max(0.0, 1.0 + R[0][0] + R[1][1] + R[2][2])) / 2.0))


def _random_axis(rng):
    return ref.unit(tuple(map(float, _axis_text(rng))))


def _points(rng):
    """Six points, the first three well off a line and the first four well off a plane."""
    while True:
        pts = [tuple(rng.uniform(-4.0, 4.0) for _ in range(3)) for _ in range(6)]
        normal = _normal(pts)
        c = ref.sub(pts[3], pts[0])
        volume = normal[0] * c[0] + normal[1] * c[1] + normal[2] * c[2]
        if ref.norm(normal) > 2.0 and abs(volume) > 2.0:
            return pts


def _normal(pts):
    """Normal of the triangle on the first three points, twice its area long."""
    return ref.cross(ref.sub(pts[1], pts[0]), ref.sub(pts[2], pts[0]))


def _fit_defect(R, proper, pts):
    """Whether the proper motion carrying pts[:3] as the linear map R does
    turns within DEFECT_OFFSET of a half turn.

    For a mirror image (R improper) that motion's rotation is R followed by
    the mirror in the triangle's plane: it agrees with R on the triangle's
    edges and is proper.
    """
    if not proper:
        R = ref.matmul(R, ref.reflection(ref.unit(_normal(pts))))
    return _half_turn_offset(R) <= DEFECT_OFFSET


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    children = False  # True when the work runs in child processes
    tail_q = 0.99  # percentile reported as op_tail_ms
    tracer = None  # set during a traced run

    def route(self, inp, out) -> str:
        """The path or kind of input an operation took, for per-route times
        and failures."""
        return "all"

    def reject_frac(self, attempted: int) -> float:
        """Share of operations the pointfit layer rejected."""
        return 0.0


class MotionChain(Workload):
    """Forward path: motion-file text -> parse -> rational fold -> screw -> pair.

    A file containing an exact half-turn record makes the rational fold
    raise; the operation then takes the half-turn route of cmd_compose
    (matrix fold plus the oracle's screw extraction).
    """

    name = "motion-chain"
    batch = 64  # about 25 ms of operations between probes
    calib = 50
    setup_imports = "screwalgebra.cli, screwalgebra.screw, screwalgebra.oracle"

    # The shares are design choices, not measured traffic: the repository
    # holds no recorded motion files. CHAIN spans a single step up to a
    # long chain, which is where compose's cost per record shows in
    # op_tail_ms. ROT_SHARE makes rotations, the costly record, the bulk.
    # HALF_TURN_SHARE is per rotation record; with about 6.8 rotations a
    # file it sends about 18% of files down the oracle route: enough that
    # the route's own p50 and p99 (printed per route) rest on over 5000
    # operations a run and that the route, about 30% of operation time,
    # shows in ops_per_s, while the rational route still sets op_p50_ms.
    ROT_SHARE = 0.75
    HALF_TURN_SHARE = 0.03
    CHAIN = (2, 16)
    THETA_B = math.pi / 2.0  # cmd_decompose defaults
    PSI = 0.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def make(self):
        rng = self.rng
        n = rng.randint(*self.CHAIN)
        text, affine, half_turns = _motion_text(
            rng, n, self.ROT_SHARE, self.HALF_TURN_SHARE
        )
        return text, affine, _probes(rng), n, half_turns

    def run(self, inp):
        try:
            records = cli.parse_motion_file(inp[0])
            try:
                D = cli.build_displacement(records, False)
                s = screw.screw_from_displacement(D)
            except OVERFLOW:
                H = cli.build_hom(records, False)
                return "oracle", oracle.screw_from_hom_bruteforce(H), None
            pair = None
            if s.kind is ScrewKind.GENERAL:
                pair = screw.conjugate_pair_decompose(s, self.THETA_B, self.PSI)
            return "rational", s, pair
        except Exception as exc:  # counted as a failed operation
            return RAISED, exc, None

    def route(self, inp, out):
        return out[0]

    def verify(self, inp, out):
        route, s, pair = out
        if route == RAISED:
            return False
        _text, affine, probes, _n, _half = inp
        if ref.max_error(affine, _screw_affine(s), probes) > TOL:
            return False
        if pair is not None:
            both = ref.compose(_rotation_affine(pair.line_a), _rotation_affine(pair.line_b))
            if ref.max_error(affine, both, probes) > TOL:
                return False
        return True


class PointTracking(Workload):
    """Inverse path: six tracked points -> fit on three -> rigidity on six -> screw.

    Kinds of input: Haar-uniform rotations; mirror images and non-rigid sets,
    whose correct answer is a typed rejection; and rotations near a half turn
    (offsets log-uniform over [DEFECT_OFFSET, 1e-3]), whose correct answer
    is the fit. The kind is also the operation's route.

    A draw whose fit would turn within DEFECT_OFFSET of a half turn is drawn
    again, whichever branch drew it (a Haar-uniform draw lands there about
    twice in 100 000): those inputs fail today, and near_pi_fail_frac
    measures them instead.
    """

    name = "point-tracking"
    batch = 128  # about 25 ms of operations between probes
    calib = 100
    setup_imports = "screwalgebra.pointfit, screwalgebra.screw"

    # The shares are design choices, not measured traffic: the repository
    # holds no recorded point sets. Haar-uniform rotations are the bulk,
    # since that is the inverse path's ordinary work, and set op_p50_ms.
    # Mirror and non-rigid sets get 4% each and near-pi rotations 7%, so
    # that a 20 s run (about 75k operations) holds about a thousand or more
    # of each kind, enough for its own p50 and tail (printed per kind) and
    # for the correctness check to see a new failure on it.
    MIRROR_SHARE = 0.04
    NONRIGID_SHARE = 0.04
    NEAR_PI_SHARE = 0.07
    # Offsets log-uniform over these decades of radians: from the edge of
    # the known defect up to 1e-3.
    NEAR_PI_DECADES = (math.log10(DEFECT_OFFSET), -3.0)

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rejected = 0
        self.drawn_again = 0  # draws within DEFECT_OFFSET of a half turn

    def _rotation(self, rng):
        u = rng.random()
        if u < self.MIRROR_SHARE:
            return "mirror", ref.matmul(_random_rotation(rng), ref.reflection(_random_axis(rng)))
        if u < self.MIRROR_SHARE + self.NONRIGID_SHARE:
            return "nonrigid", _random_rotation(rng)
        if u < self.MIRROR_SHARE + self.NONRIGID_SHARE + self.NEAR_PI_SHARE:
            offset = 10.0 ** rng.uniform(*self.NEAR_PI_DECADES)
            return "near-pi", ref.rotation(_random_axis(rng), math.pi - offset)
        return "haar", _random_rotation(rng)

    def make(self):
        rng = self.rng
        while True:
            kind, R = self._rotation(rng)
            truth = (R, tuple(rng.uniform(-5.0, 5.0) for _ in range(3)))
            pts = _points(rng)
            if not _fit_defect(R, kind != "mirror", pts):
                break
            self.drawn_again += 1
        return self._input(rng, kind, truth, pts)

    def _input(self, rng, kind, truth, pts):
        images = [ref.apply(truth, p) for p in pts]
        if kind == "nonrigid":
            k = rng.randrange(6)
            images[k] = ref.add(images[k], ref.scale(_random_axis(rng), 0.05))
        corrs = [Correspondence(Vec3(*p), Vec3(*q)) for p, q in zip(pts, images)]
        return kind, corrs, truth, pts

    def near_pi_input(self, rng):
        """A fit input from the set near_pi_fail_frac measures: a proper
        motion turning within DEFECT_OFFSET of a half turn."""
        if rng.random() < EXACT_PI_SHARE:
            theta = math.pi
        else:
            theta = math.pi - 10.0 ** rng.uniform(-9.0, math.log10(DEFECT_OFFSET))
        truth = (ref.rotation(_random_axis(rng), theta), tuple(rng.uniform(-5.0, 5.0) for _ in range(3)))
        return self._input(rng, "near-pi", truth, _points(rng))

    def run(self, inp):
        corrs = inp[1]
        try:
            fit = pointfit.fit_displacement(corrs[0], corrs[1], corrs[2])
            report = pointfit.check_rigidity(corrs)
            return "fit", fit, report, screw.screw_from_displacement(fit)
        except ScrewAlgebraError as exc:
            return "rejected", exc, None, None
        except Exception as exc:  # counted as a failed operation
            return RAISED, exc, None, None

    def route(self, inp, out):
        return inp[0]

    def verify(self, inp, out):
        kind, _corrs, truth, pts = inp
        outcome, fit, report, s = out
        if outcome == RAISED:
            return False
        self.rejected += outcome == "rejected" or not (report.rigid and report.proper)
        if kind == "mirror":
            return isinstance(fit, NonRigidData) or (
                outcome == "fit" and report.rigid and not report.proper
            )
        if kind == "nonrigid":
            return isinstance(fit, NonRigidData) or (outcome == "fit" and not report.rigid)
        return (
            outcome == "fit"
            and report.rigid
            and report.proper
            and ref.max_error(
                truth, ref.gibbs_map(fit.q.as_vec3().as_tuple(), fit.delta.as_tuple()), pts
            ) <= TOL
            and ref.max_error(truth, _screw_affine(s), pts) <= TOL
        )

    def reject_frac(self, attempted):
        return self.rejected / attempted


def near_pi_fail_frac(seed: int) -> float:
    """Share of NEAR_PI_SET fit inputs, drawn from the seed, that turn within
    DEFECT_OFFSET of a half turn (exactly pi included) and that the
    point-tracking path does not answer correctly.

    Every proper rigid motion has a fit, so this is 0 once the known defect
    is fixed. The set is run once, untimed and untraced.
    """
    wl = PointTracking(None, seed)
    rng = random.Random(f"near-pi:{seed}")
    failed = 0
    for _ in range(NEAR_PI_SET):
        inp = wl.near_pi_input(rng)
        failed += not wl.verify(inp, wl.run(inp))
    return failed / NEAR_PI_SET


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CheckSuite(Workload):
    """``screwalgebra check`` in-process (``cli.main``) at the run's seed and a
    fixed budget.

    The exit code must be 0, every invariant must pass, and the report must
    equal, line for line, what ``python -m screwalgebra.cli check`` prints in
    a child process for the same seed and budget.
    """

    name = "check-suite"
    batch = 1
    calib = 1
    tail_q = 0.85  # 80 to 130 suites fit in a run
    setup_imports = "screwalgebra.cli"

    # 1/200 of the default --samples. Every invariant's count scales with
    # the budget, so the mix is kept, and a suite is short enough (about
    # 0.15 s) for the probes around it to track the machine.
    BUDGET = 50

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.expected = None

    def make(self):
        return self.seed

    def args(self, seed):
        return ["check", "--seed", str(seed), "--samples", str(self.BUDGET)]

    def run(self, seed):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(self.args(seed))
            return code, out.getvalue().splitlines()
        except Exception as exc:  # counted as a failed operation
            return RAISED, exc

    def verify(self, seed, out):
        code, lines = out
        if self.expected is None:
            proc = subprocess.run(
                [sys.executable, "-m", "screwalgebra.cli", *self.args(seed)],
                cwd=self.root, env=child_env(self.root), capture_output=True,
                text=True, timeout=170,
            )
            self.expected = proc.stdout.splitlines()
        return code == cli.EXIT_OK and "checks.failed=0" in lines and lines == self.expected


def _parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _vec(text):
    return tuple(float(c) for c in text.split(","))


def _cli_screw(kv):
    point, axis = _vec(kv["axis.point"]), _vec(kv["axis.dir"])
    return ref.screw_map(point, axis, math.radians(float(kv["angle"])), float(kv["slide"]))


def _cli_line(kv, key):
    return ref.turn_about(
        _vec(kv[f"{key}.point"]), _vec(kv[f"{key}.dir"]), math.radians(float(kv[f"{key}.angle"]))
    )


class CliOneshot(Workload):
    """One ``python -m screwalgebra.cli`` child at a time, over a fixed mix.

    The mix cycles compose, decompose and fit on small generated files, a
    half-turn motion file (exit 3) and a mirror-image CSV (exit 5). A fit
    whose motion would turn within DEFECT_OFFSET of a half turn is drawn
    again, as on point-tracking.
    """

    name = "cli-oneshot"
    children = True
    batch = 1  # a probe after every call
    calib = 5
    tail_q = 0.85  # 65 to 110 calls fit in a run
    setup_imports = "screwalgebra.cli"

    MIX = ("compose", "decompose", "fit", "compose-half-turn", "fit-mirror")

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.work = root / ".bench_out" / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = child_env(root)
        self.calls = 0
        self.fits = self.fit_rejects = 0

    def make(self):
        rng = self.rng
        kind = self.MIX[self.calls % len(self.MIX)]
        self.calls += 1
        probes = _probes(rng)
        if kind in ("compose", "decompose"):
            text, truth, _ = _motion_text(rng, rng.randint(2, 5), 1.0, 0.0)
            path = self.work / f"{kind}.txt"
        elif kind == "compose-half-turn":
            d, p = _axis_text(rng), [f"{rng.uniform(-5.0, 5.0):.3f}" for _ in range(3)]
            t = [f"{rng.uniform(-5.0, 5.0):.3f}" for _ in range(3)]
            text = f"rot {' '.join(d)} {' '.join(p)} 180\ntrans {' '.join(t)}\n"
            turn = ref.turn_about(
                tuple(map(float, p)), ref.unit(tuple(map(float, d))), math.pi
            )
            truth = ref.compose(turn, (ref.IDENTITY[0], tuple(map(float, t))))
            path = self.work / "half-turn.txt"
        else:
            while True:
                R = _random_rotation(rng)
                if kind == "fit-mirror":
                    R = ref.matmul(R, ref.reflection(_random_axis(rng)))
                truth = (R, tuple(rng.uniform(-5.0, 5.0) for _ in range(3)))
                probes = _points(rng)
                if not _fit_defect(R, kind == "fit", probes):
                    break
            rows = ["x,y,z,xp,yp,zp"] + [
                ",".join(f"{c:.17g}" for c in (*p, *ref.apply(truth, p))) for p in probes
            ]
            text = "\n".join(rows) + "\n"
            path = self.work / f"{kind}.csv"
        path.write_text(text)
        return kind, [kind.split("-")[0], str(path)], truth, probes

    def route(self, inp, out):
        return inp[0]

    def run(self, inp):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "screwalgebra.cli", *inp[1]]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), *inp[1]]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def verify(self, inp, out):
        kind, _args, truth, probes = inp
        code, stdout, stderr = out
        if self.tracer is not None and stderr.strip():
            # The traced child reports its spans as the last stderr line.
            self.tracer.merge(json.loads(stderr.strip().splitlines()[-1]))
        kv = _parse_kv(stdout)
        try:
            if kind == "compose":
                return (
                    code == 0
                    and kv["kind"] == "screw"
                    and ref.max_error(truth, _cli_screw(kv), probes) <= TOL
                    and ref.max_error(truth, ref.gibbs_map(_vec(kv["q"]), _vec(kv["delta"])), probes) <= TOL
                )
            if kind == "decompose":
                both = ref.compose(_cli_line(kv, "lineA"), _cli_line(kv, "lineB"))
                return (
                    code == 0
                    and ref.max_error(truth, both, probes) <= TOL
                    and float(kv["invariant.difference"]) <= TOL * (1.0 + abs(float(kv["invariant.lhs"])))
                )
            if kind == "compose-half-turn":
                return (
                    code == cli.EXIT_GIBBS_OVERFLOW
                    and kv["kind"] == "screw"
                    and ref.max_error(truth, _cli_screw(kv), probes) <= TOL
                    and ref.dist(_vec(kv["delta"]), truth[1]) <= TOL * (1.0 + ref.norm(truth[1]))
                )
            self.fits += 1
            self.fit_rejects += code != 0
            if kind == "fit":
                return (
                    code == 0
                    and kv["rigidity.rigid"] == "true"
                    and kv["rigidity.proper"] == "true"
                    and ref.max_error(truth, ref.gibbs_map(_vec(kv["q"]), _vec(kv["delta"])), probes) <= TOL
                    and ref.max_error(truth, _cli_screw(kv), probes) <= TOL
                )
            return code == cli.EXIT_NON_RIGID and kv.get("error") == "improper"
        except (KeyError, ValueError):  # a missing or malformed key is a wrong answer
            return False

    def reject_frac(self, attempted):
        return self.fit_rejects / max(1, self.fits)


WORKLOADS = {
    wl.name: wl for wl in (MotionChain, PointTracking, CheckSuite, CliOneshot)
}
