"""Seeded property-check suite behind the CLI ``check`` command.

Every invariant documented in the library modules is expressed here as a
deterministic, seeded property run. A check decides nothing: it yields one
(error, bound, detail) comparison per tested quantity, exact and boolean
properties as a 0/1 error against a bound of 0, and ``run_all`` alone
compares. The registry fixes the report order; the sample counts scale with
the requested total so ``--samples 10`` is a smoke run and the default
reproduces the full gate. The user tolerance acts as a global scale relative
to the 1e-9 default, so passing an absurdly tight value makes the suite fail
on purpose (a harness sanity feature).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .compose import (
    Couple,
    compose_displacements,
    compose_gibbs,
    couple_translation,
    nonintersecting_pair,
    order_swap_axis,
    resultant_trig,
)
from .core import (
    ZERO,
    AxisLine,
    Rotation,
    UnitVec3,
    Vec3,
    canonicalize_rotation,
    make_unit,
)
from .errors import ScrewAlgebraError
from .infinitesimal import (
    _BASIS_TWISTS,
    PointForce,
    compose_twists,
    force_equilibrium,
    parallel_rotation_center,
    twist_field,
    twist_of_rotation,
    virtual_work,
)
from .oracle import (
    hom_compose,
    hom_from_displacement,
    hom_from_rotation,
    screws_from_homs,
    stacked_matmul,
    IDENTITY_HOM,
)
from .pointfit import Correspondence, fit_displacement
from .rotation import (
    Displacement,
    GibbsVector,
    Twist,
    apply_displacement,
    gibbs_from_axis_angle,
    gibbs_from_matrix,
    matrix_from_gibbs,
    rodrigues_rotate,
)
from .screw import (
    Screw,
    ScrewKind,
    conjugate_invariant,
    conjugate_pair_decompose,
    displacement_from_screw,
    screw_from_displacement,
)

TOL_REFERENCE = 1e-9  # the CLI --tol default; thresholds scale by tol / this
# Samples per oracle call in the oracle checks. It bounds the stacked arrays'
# memory and changes no result.
ORACLE_CHUNK = 128


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property run."""

    name: str
    passed: bool
    samples: int
    detail: str = ""  # failing-sample echo, empty when passed


def _rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _rand_vec(rng: random.Random, scale: float = 1.0) -> Vec3:
    return Vec3(
        rng.uniform(-scale, scale),
        rng.uniform(-scale, scale),
        rng.uniform(-scale, scale),
    )


def _rand_unit(rng: random.Random) -> UnitVec3:
    while True:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if v.norm() > 1e-6:
            return make_unit(v)


def _rand_gibbs(rng: random.Random, max_norm: float = 10.0) -> GibbsVector:
    mag = max_norm * rng.random() ** (1.0 / 3.0)
    d = _rand_unit(rng)
    return GibbsVector(d.x * mag, d.y * mag, d.z * mag)


def _rand_displacement(rng: random.Random) -> Displacement:
    axis = _rand_unit(rng)
    theta = rng.uniform(0.02, math.pi - 0.02)
    return Displacement(gibbs_from_axis_angle(axis, theta), _rand_vec(rng, 3.0))


def _rand_general_screw(rng: random.Random) -> Screw:
    return Screw.general(
        _rand_vec(rng, 3.0),
        _rand_unit(rng),
        rng.uniform(0.05, math.pi - 0.05),
        rng.uniform(-3.0, 3.0),
    )


def _rotate_about(line: AxisLine, angle: float, p: Vec3) -> Vec3:
    return line.point + rodrigues_rotate(line.dir, angle, p - line.point)


def _against_oracle(n, draw, oracle, compare):
    """Comparisons of n library samples with the oracle, ORACLE_CHUNK at a
    time: draw(i) runs the library on sample i and returns (sample, oracle
    input); one oracle call answers the whole chunk; compare(i, sample,
    answer) yields the sample's comparisons, in sample order.

    A draw that raises stops the drawing. The samples before it are still
    compared and the error is raised after them, so an earlier failing
    comparison wins, as it would sample by sample.
    """
    for start in range(0, n, ORACLE_CHUNK):
        samples, inputs, failure = [], [], None
        for i in range(start, min(n, start + ORACLE_CHUNK)):
            try:
                sample, query = draw(i)
            except Exception as exc:
                failure = exc
                break
            samples.append(sample)
            inputs.append(query)
        answers = oracle(inputs)
        for i, (sample, answer) in enumerate(zip(samples, answers), start):
            yield from compare(i, sample, answer)
        if failure is not None:
            raise failure


# ---------------------------------------------------------------------------
# core


def check_canonical_map_preserved(rng, n, k):
    for _ in range(max(1, n // 10)):
        line = AxisLine(_rand_vec(rng, 3.0), _rand_unit(rng))
        angle = rng.uniform(-math.pi + 1e-6, math.pi)
        rot = Rotation(line, angle)
        canon = canonicalize_rotation(rot)
        for _ in range(10):
            p = _rand_vec(rng, 4.0)
            a = _rotate_about(rot.line, rot.angle, p)
            b = _rotate_about(canon.line, canon.angle, p)
            yield (a - b).norm(), 1e-12 * k, lambda: (
                f"rotation {rot} point {p}: maps differ by {(a-b).norm():.3e}")


def check_make_unit_idempotent(rng, n, k):
    for i in range(n):
        v = _rand_vec(rng, 10.0)
        if v.norm() <= 1e-6:
            continue
        once = make_unit(v)
        twice = make_unit(once)
        yield (once - twice).norm(), 1e-15 * k, lambda: f"v={v.as_tuple()}: renormalizing moved the direction"


# ---------------------------------------------------------------------------
# rotation


def check_matrix_vs_rodrigues(rng, n, k):
    for i in range(n):
        axis = _rand_unit(rng)
        theta = rng.uniform(-math.pi + 0.01, math.pi - 0.01)
        M = matrix_from_gibbs(gibbs_from_axis_angle(axis, theta))
        for _ in range(10):
            r = _rand_vec(rng, 5.0)
            err = (M.apply(r) - rodrigues_rotate(axis, theta, r)).norm()
            yield err, 1e-10 * k, lambda: f"axis={axis.as_tuple()} theta={theta} r={r.as_tuple()} err={err:.3e}"


def check_gibbs_matrix_roundtrip(rng, n, k):
    for i in range(n):
        mag = 10.0 ** rng.uniform(-2.0, 2.0)
        d = _rand_unit(rng)
        q = GibbsVector(d.x * mag, d.y * mag, d.z * mag)
        back = gibbs_from_matrix(matrix_from_gibbs(q))
        err = Vec3(back.m - q.m, back.n - q.n, back.p - q.p).norm()
        yield err, 1e-9 * k * max(1.0, mag), lambda: f"q=({q.m},{q.n},{q.p}) roundtrip err={err:.3e}"


def check_matrix_orthonormal(rng, n, k):
    for i in range(n):
        q = _rand_gibbs(rng, 10.0)
        M = matrix_from_gibbs(q)
        r = M.rows
        worst = 0.0
        for a in range(3):
            for b in range(3):
                dot = 0.0 + r[0][a] * r[0][b] + r[1][a] * r[1][b] + r[2][a] * r[2][b]
                worst = max(worst, abs(dot - (1.0 if a == b else 0.0)))
        worst = max(worst, abs(M.det() - 1.0))
        yield worst, 1e-12 * k, lambda: f"q=({q.m},{q.n},{q.p}) orthonormality defect {worst:.3e}"


def check_apply_rigidity(rng, n, k):
    for i in range(n):
        D = Displacement(_rand_gibbs(rng, 10.0), _rand_vec(rng, 5.0))
        pts = [_rand_vec(rng, 5.0) for _ in range(5)]
        imgs = [apply_displacement(D, p) for p in pts]
        for a in range(5):
            for b in range(a + 1, 5):
                before = (pts[a] - pts[b]).norm()
                after = (imgs[a] - imgs[b]).norm()
                yield abs(before - after), 1e-12 * k * max(1.0, before), lambda: (
                    f"q=({D.q.m},{D.q.n},{D.q.p}) pts {pts[a].as_tuple()},"
                    f"{pts[b].as_tuple()}: distance {before} -> {after}"
                )


# ---------------------------------------------------------------------------
# compose


def check_associativity(rng, n, k):
    for i in range(n):
        D1, D2, D3 = (_rand_displacement(rng) for _ in range(3))
        left = compose_displacements(compose_displacements(D1, D2), D3)
        right = compose_displacements(D1, compose_displacements(D2, D3))
        for _ in range(5):
            p = _rand_vec(rng, 4.0)
            err = (apply_displacement(left, p) - apply_displacement(right, p)).norm()
            yield err, 1e-8 * k, lambda: f"triple #{i} at {p.as_tuple()}: fold orders differ by {err:.3e}"


def check_order_sensitivity(rng, n, k):
    for i in range(n):
        t1 = rng.uniform(0.1, math.pi - 0.1)
        t2 = rng.uniform(0.1, math.pi - 0.1)
        nu = rng.uniform(0.1, math.pi - 0.1)
        # w = cos(Theta/2) of the resultant; keep clear of a half turn.
        c1, s1 = math.cos(t1 / 2.0), math.sin(t1 / 2.0)
        c2, s2 = math.cos(t2 / 2.0), math.sin(t2 / 2.0)
        if abs(c1 * c2 - s1 * s2 * math.cos(nu)) < 1e-3:
            continue
        fwd_theta = resultant_trig(t1, t2, nu).theta
        rev_theta = resultant_trig(t2, t1, nu).theta
        yield abs(fwd_theta - rev_theta), 1e-10 * k, lambda: f"(t1={t1},t2={t2},nu={nu}): amplitudes differ"
        a_f, a_r = order_swap_axis(t1, t2, nu)
        mirror_err = max(abs(a_f.x - a_r.x), abs(a_f.y - a_r.y), abs(a_f.z + a_r.z))
        yield mirror_err, 1e-10 * k, lambda: (
            f"(t1={t1},t2={t2},nu={nu}): axes are not mirror images, err={mirror_err:.3e}")


def check_compose_vs_matrix_oracle(rng, n, k):
    def draw(i):
        while True:
            q1 = _rand_gibbs(rng, 10.0)
            q2 = _rand_gibbs(rng, 10.0)
            den = 1.0 - (q1.m * q2.m + q1.n * q2.n + q1.p * q2.p) / 4.0
            if abs(den) >= 1e-3:
                break
        a = matrix_from_gibbs(compose_gibbs(q1, q2)).rows
        return (q1, q2, a), (matrix_from_gibbs(q2), matrix_from_gibbs(q1))

    def compare(i, sample, b):
        q1, q2, a = sample
        dev = max(abs(a[r][c] - b[r][c]) for r in range(3) for c in range(3))
        yield dev, 1e-9 * k, lambda: (
            f"q1=({q1.m},{q1.n},{q1.p}) q2=({q2.m},{q2.n},{q2.p}) "
            f"matrix deviation {dev:.3e}"
        )

    return _against_oracle(n, draw, stacked_matmul, compare)


def check_couple_uniformity(rng, n, k):
    couples = max(1, n // 100)
    for i in range(couples):
        c = Couple(
            _rand_unit(rng),
            _rand_vec(rng, 3.0),
            _rand_vec(rng, 3.0),
            rng.uniform(1e-3, math.pi - 1e-3),
        )
        line1 = AxisLine(c.point1, c.dir)
        line2 = AxisLine(c.point2, c.dir)

        def move(p: Vec3) -> Vec3:
            return _rotate_about(line2, -c.theta, _rotate_about(line1, c.theta, p))

        first = move(ZERO) - ZERO
        for _ in range(100):
            p = _rand_vec(rng, 5.0)
            spread = ((move(p) - p) - first).norm()
            yield spread, 1e-10 * k, lambda: f"couple #{i} at {p.as_tuple()}: displacement spread {spread:.3e}"


def check_nonintersecting_slide_vs_oracle(rng, n, k):
    def draw(i):
        while True:
            line1 = AxisLine(_rand_vec(rng, 2.0), _rand_unit(rng))
            line2 = AxisLine(_rand_vec(rng, 2.0), _rand_unit(rng))
            cross = line1.dir.cross(line2.dir)
            w0 = line2.point - line1.point
            if cross.norm() < 1e-2:
                continue
            if abs(w0.dot(cross)) / cross.norm() < 1e-2:
                continue
            t1 = rng.uniform(0.05, math.pi - 0.05)
            t2 = rng.uniform(0.05, math.pi - 0.05)
            c1, s1 = math.cos(t1 / 2.0), math.sin(t1 / 2.0)
            c2, s2 = math.cos(t2 / 2.0), math.sin(t2 / 2.0)
            # v = sin(Theta/2) * axis of the resultant, clearly a rotation
            v = line1.dir * (s1 * c2) + line2.dir * (s2 * c1) + line2.dir.cross(line1.dir) * (s1 * s2)
            if v.norm() > 1e-3:
                break
        screw, _delta = nonintersecting_pair(Rotation(line1, t1), Rotation(line2, t2))
        H = hom_compose(
            hom_from_rotation(line1.point, line1.dir, t1),
            hom_from_rotation(line2.point, line2.dir, t2),
        )
        return (line1, t1, line2, t2, screw), H

    def compare(i, sample, oracle):
        line1, t1, line2, t2, screw = sample
        yield abs(screw.slide - oracle.slide), 1e-9 * k * max(1.0, abs(oracle.slide)), lambda: (
            f"lines {line1}/{t1}, {line2}/{t2}: slide {screw.slide} vs oracle "
            f"{oracle.slide}"
        )

    return _against_oracle(n, draw, screws_from_homs, compare)


# ---------------------------------------------------------------------------
# screw


def check_projection_constancy(rng, n, k):
    for i in range(n):
        D = _rand_displacement(rng)
        qhat = make_unit(D.q.as_vec3())
        first = None
        for _ in range(20):
            r = _rand_vec(rng, 5.0)
            proj = (apply_displacement(D, r) - r).dot(qhat)
            if first is None:
                first = proj
            else:
                yield abs(proj - first), 1e-10 * k, lambda: (
                    f"D #{i} at {r.as_tuple()}: projection varies by {abs(proj-first):.3e}")


def check_norm_law(rng, n, k):
    for i in range(n):
        D = _rand_displacement(rng)
        S = screw_from_displacement(D)
        if S.kind is not ScrewKind.GENERAL:
            continue
        t = S.slide
        tan_half = math.tan(S.theta / 2.0)
        for _ in range(5):
            r = _rand_vec(rng, 5.0)
            delta = apply_displacement(D, r) - r
            mid = r + delta * 0.5
            arm = mid - S.axis.point
            u = (arm - S.axis.dir * arm.dot(S.axis.dir)).norm()
            lhs = delta.dot(delta)
            rhs = t * t + 4.0 * u * u * tan_half * tan_half
            yield abs(lhs - rhs), 1e-9 * k * max(1.0, abs(lhs), abs(rhs)), lambda: (
                f"D #{i} r={r.as_tuple()}: |chord|^2 {lhs} vs law {rhs}")


def check_minimality(rng, n, k):
    for i in range(n):
        S = _rand_general_screw(rng)
        D = displacement_from_screw(S)
        t = abs(S.slide)
        on_axis = S.axis.point + S.axis.dir * rng.uniform(-3, 3)
        d_axis = (apply_displacement(D, on_axis) - on_axis).norm()
        yield abs(d_axis - t), 1e-9 * k, lambda: f"screw #{i}: on-axis point moves {d_axis}, slide {t}"
        for _ in range(5):
            r = _rand_vec(rng, 5.0)
            arm = r - S.axis.point
            dist = (arm - S.axis.dir * arm.dot(S.axis.dir)).norm()
            if dist < 0.1:
                continue
            moved = (apply_displacement(D, r) - r).norm()
            yield float(moved <= t), 0.0, lambda: (
                f"screw #{i} r={r.as_tuple()}: off-axis chord {moved} <= slide {t}")


def check_midpoint_property(rng, n, k):
    for i in range(n):
        S = _rand_general_screw(rng)
        D = displacement_from_screw(S)
        while True:
            r = _rand_vec(rng, 5.0)
            arm = r - S.axis.point
            if (arm - S.axis.dir * arm.dot(S.axis.dir)).norm() >= 0.5:
                break
        delta = apply_displacement(D, r) - r
        best_j, best_d = -1, float("inf")
        for j in range(101):
            p = r + delta * (j / 100.0)
            arm = p - S.axis.point
            d = (arm - S.axis.dir * arm.dot(S.axis.dir)).norm()
            if d < best_d:
                best_j, best_d = j, d
        yield float(abs(best_j - 50) > 1), 0.0, lambda: (
            f"screw #{i} r={r.as_tuple()}: closest chord sample at s={best_j/100.0}")


def check_chasles_roundtrip(rng, n, k):
    for i in range(n):
        S = _rand_general_screw(rng)
        back = screw_from_displacement(displacement_from_screw(S))
        err = max(
            (back.axis.point - S.axis.point).norm(),
            (back.axis.dir - S.axis.dir).norm(),
            abs(back.theta - S.theta),
            abs(back.slide - S.slide),
        )
        yield err, 1e-9 * k, lambda: f"screw #{i}: roundtrip error {err:.3e}"


def check_conjugate_invariant_holds(rng, n, k):
    for i in range(n):
        S = Screw.general(
            _rand_vec(rng, 3.0),
            _rand_unit(rng),
            rng.uniform(0.05, math.pi - 0.05),
            rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0),
        )
        pair = conjugate_pair_decompose(
            S, rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.0, 2.0 * math.pi)
        )
        if pair.degenerate:
            continue
        inv = conjugate_invariant(pair.line_a, pair.line_b)
        yield abs(inv.lhs - inv.rhs), 1e-9 * k * max(1.0, abs(S.slide)), lambda: (
            f"screw #{i}: invariant sides {inv.lhs} vs {inv.rhs}")


# ---------------------------------------------------------------------------
# pointfit


def _rand_triangle(rng) -> list[Vec3]:
    while True:
        pts = [_rand_vec(rng, 4.0) for _ in range(3)]
        area = (pts[1] - pts[0]).cross(pts[2] - pts[0]).norm()
        scale = max((pts[1] - pts[0]).norm(), (pts[2] - pts[0]).norm())
        if scale > 0.5 and area > 0.2 * scale:
            return pts


def check_fit_roundtrip(rng, n, k):
    for i in range(n):
        axis = _rand_unit(rng)
        theta = rng.uniform(0.01, math.pi - 0.01)
        D = Displacement(gibbs_from_axis_angle(axis, theta), _rand_vec(rng, 3.0))
        pts = _rand_triangle(rng)
        corrs = [Correspondence(p, apply_displacement(D, p)) for p in pts]
        fit = fit_displacement(*corrs)
        qerr = (fit.q.as_vec3() - D.q.as_vec3()).norm()
        derr = (fit.delta - D.delta).norm()
        detail = lambda: f"motion #{i}: fit errors q={qerr:.3e} delta={derr:.3e}"
        yield qerr, 1e-8 * k * max(1.0, D.q.as_vec3().norm()), detail
        yield derr, 1e-8 * k * max(1.0, D.delta.norm()), detail


def check_fourth_point_prediction(rng, n, k):
    for i in range(n):
        D = _rand_displacement(rng)
        pts = _rand_triangle(rng)
        corrs = [Correspondence(p, apply_displacement(D, p)) for p in pts]
        fit = fit_displacement(*corrs)
        p4 = _rand_vec(rng, 4.0)
        err = (apply_displacement(fit, p4) - apply_displacement(D, p4)).norm()
        yield err, 1e-8 * k * max(1.0, p4.norm()), lambda: f"motion #{i}: fourth point missed by {err:.3e}"


def check_fit_vs_least_squares(rng, n, k):
    """fit_displacement agrees with an unconstrained least-squares rotation fit."""
    import numpy as np

    for i in range(n):
        D = _rand_displacement(rng)
        pts = _rand_triangle(rng)
        corrs = [Correspondence(p, apply_displacement(D, p)) for p in pts]
        fit = fit_displacement(*corrs)
        before = np.array([p.as_tuple() for p in pts])
        after = np.array([c.after.as_tuple() for c in corrs])
        cb = before.mean(axis=0)
        ca = after.mean(axis=0)
        cov = (after - ca).T @ (before - cb)
        u, _, vt = np.linalg.svd(cov)
        sign = np.sign(np.linalg.det(u @ vt))
        R = u @ np.diag([1.0, 1.0, sign]) @ vt
        rot_err = float(np.max(np.abs(R - np.array(matrix_from_gibbs(fit.q).rows))))
        d_err = (fit.delta - Vec3(*[float(x) for x in ca - R @ cb])).norm()
        detail = lambda: f"motion #{i}: frame fit vs SVD fit R={rot_err:.3e} d={d_err:.3e}"
        yield rot_err, 1e-8 * k, detail
        yield d_err, 1e-8 * k, detail


# ---------------------------------------------------------------------------
# infinitesimal


def check_linearization_order(rng, n, k):
    for i in range(n):
        lines = [AxisLine(_rand_vec(rng, 2.0), _rand_unit(rng)) for _ in range(5)]
        rates = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        probes = [_rand_vec(rng, 2.0) for _ in range(3)]

        def error_at(eps: float) -> float:
            H = IDENTITY_HOM
            for line, rate in zip(lines, rates):
                H = hom_compose(H, hom_from_rotation(line.point, line.dir, rate * eps))
            total = compose_twists(
                [twist_of_rotation(line, rate * eps) for line, rate in zip(lines, rates)]
            )
            return max(
                (H.apply(p) - (p + twist_field(total, p))).norm() for p in probes
            )

        e1, e2 = error_at(1e-2), error_at(5e-3)
        if e2 < 1e-13:  # nearly commuting sequence: no second-order signal
            continue
        ratio = e1 / e2
        yield float(not 3.5 <= ratio <= 4.5), 0.0, lambda: (
            f"sequence #{i}: halving ratio {ratio:.3f} outside [3.5, 4.5]")


def check_virtual_work_bilinear(rng, n, k):
    # Integer-valued samples keep every product and sum exact, so bilinearity
    # must hold to the last bit.
    def int_vec():
        return Vec3(
            float(rng.randint(-8, 8)), float(rng.randint(-8, 8)), float(rng.randint(-8, 8))
        )

    for i in range(n):
        fa = [PointForce(int_vec(), int_vec()) for _ in range(3)]
        fb = [PointForce(int_vec(), int_vec()) for _ in range(2)]
        t1 = Twist(int_vec(), int_vec())
        t2 = Twist(int_vec(), int_vec())
        both = Twist(t1.delta + t2.delta, t1.omega + t2.omega)
        split = virtual_work(fa + fb, t1) != virtual_work(fa, t1) + virtual_work(fb, t1)
        yield float(split), 0.0, lambda: f"sample #{i}: additivity in the force system broke"
        split = virtual_work(fa, both) != virtual_work(fa, t1) + virtual_work(fa, t2)
        yield float(split), 0.0, lambda: f"sample #{i}: additivity in the twist broke"


def _balance(forces: list[PointForce]) -> list[PointForce]:
    """Append forces that cancel the net force and net torque."""
    net = ZERO
    torque = ZERO
    for pf in forces:
        net = net + pf.f
        torque = torque + pf.at.cross(pf.f)
    out = list(forces) + [PointForce(ZERO, -net)]
    if torque.norm() > 1e-15:
        helper = Vec3(0.3257, -0.7455, 0.5822)
        if torque.cross(helper).norm() <= 1e-9 * torque.norm():
            helper = Vec3(0.9051, 0.1122, -0.41)
        g = make_unit(torque.cross(helper))  # unit and perpendicular to torque
        gv = Vec3(g.x, g.y, g.z)
        # p x g = -torque exactly of the cancelling couple (g perp torque, |g|=1)
        p = gv.cross(-torque)
        out.append(PointForce(p, gv))
        out.append(PointForce(ZERO, -gv))
    return out


def check_equilibrium_iff_basis(rng, n, k):
    tol = 1e-9 * k
    for i in range(n):
        raw = [PointForce(_rand_vec(rng, 3.0), _rand_vec(rng, 3.0)) for _ in range(4)]
        forces = _balance(raw) if i % 2 == 0 else raw
        via_basis = all(abs(virtual_work(forces, b)) <= tol for b in _BASIS_TWISTS)
        yield float(force_equilibrium(forces, tol=tol) != via_basis), 0.0, lambda: (
            f"system #{i}: equilibrium verdict disagrees with basis works")
        if i % 2 == 0:
            yield float(not via_basis), 0.0, lambda: f"system #{i}: projected-to-equilibrium system rejected"
        else:
            # A random unbalanced system passing is effectively impossible.
            yield float(via_basis), 0.0, lambda: f"system #{i}: unbalanced system accepted"


def check_center_representative_invariance(rng, n, k):
    for i in range(n):
        d = _rand_unit(rng)
        m = rng.randint(2, 5)
        pts = [_rand_vec(rng, 3.0) for _ in range(m)]
        while True:
            thetas = [rng.uniform(-1.0, 1.0) for _ in range(m)]
            if abs(math.fsum(thetas)) > 0.1:
                break
        lines_a = [AxisLine(p, d) for p in pts]
        lines_b = [AxisLine(p + d * rng.uniform(-5, 5), d) for p in pts]
        ca = parallel_rotation_center(lines_a, thetas)
        cb = parallel_rotation_center(lines_b, thetas)
        yield (ca - cb).norm(), 1e-12 * k * max(1.0, ca.norm()), lambda: (
            f"family #{i}: center moved {(ca-cb).norm():.3e} under re-anchoring")


# ---------------------------------------------------------------------------
# oracle


def check_bruteforce_vs_closed_form(rng, n, k):
    def draw(i):
        if i % 100 == 0:
            theta = 1e-6
        elif i % 100 == 1:
            theta = math.pi - 1e-6
        else:
            theta = rng.uniform(0.01, math.pi - 0.01)
        S = Screw.general(
            _rand_vec(rng, 3.0), _rand_unit(rng), theta, rng.uniform(-3.0, 3.0)
        )
        D = displacement_from_screw(S)
        return (theta, screw_from_displacement(D)), hom_from_displacement(D)

    def compare(i, sample, brute):
        theta, closed = sample
        yield float(closed.kind != brute.kind), 0.0, lambda: f"screw #{i}: kinds {closed.kind} vs {brute.kind}"
        # An axis-point offset e moves the induced map by 2 sin(theta/2) |e|,
        # so that is the scale on which the two points can be compared: at
        # tiny angles the axis position itself is not determined by the
        # matrix to better than noise/theta^2, but the map is.
        point_weight = 2.0 * math.sin(closed.theta / 2.0)
        err = max(
            (closed.axis.point - brute.axis.point).norm() * point_weight,
            (closed.axis.dir - brute.axis.dir).norm(),
            abs(closed.theta - brute.theta),
            abs(closed.slide - brute.slide),
        )
        yield err, 1e-8 * k, lambda: f"screw #{i} (theta={theta}): oracle deviation {err:.3e}"

    return _against_oracle(n, draw, screws_from_homs, compare)


# ---------------------------------------------------------------------------
# cli


def check_parse_print_roundtrip(rng, n, k):
    from . import cli  # deferred: cli imports this module

    for i in range(max(1, n // 100)):
        records = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                d = _rand_unit(rng)
                records.append(
                    cli.RotRecord(
                        d.x, d.y, d.z,
                        rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5),
                        rng.uniform(-360, 360),
                    )
                )
            else:
                records.append(
                    cli.TransRecord(
                        rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)
                    )
                )
        text = cli.format_motion_file(records)
        reparsed = cli.parse_motion_file(text)
        yield float(reparsed != records), 0.0, lambda: f"file #{i}: reparse changed the records"
        yield float(cli.format_motion_file(reparsed) != text), 0.0, lambda: f"file #{i}: second print differs"


# ---------------------------------------------------------------------------
# registry

# One comparison of a check: (error, bound, detail). The detail builds the
# failing sample's echo and is called only when the comparison fails.
Comparison = tuple[float, float, Callable[[], str]]
Check = Callable[[random.Random, int, float], Iterator[Comparison]]

REGISTRY: list[tuple[str, int, Check]] = [
    ("core.canonical_map_preserved", 1000, check_canonical_map_preserved),
    ("core.make_unit_idempotent", 1000, check_make_unit_idempotent),
    ("rotation.matrix_vs_rodrigues", 10000, check_matrix_vs_rodrigues),
    ("rotation.gibbs_matrix_roundtrip", 10000, check_gibbs_matrix_roundtrip),
    ("rotation.matrix_orthonormal", 10000, check_matrix_orthonormal),
    ("rotation.apply_rigidity", 1000, check_apply_rigidity),
    ("compose.associativity", 1000, check_associativity),
    ("compose.order_sensitivity", 1000, check_order_sensitivity),
    ("compose.gibbs_vs_matrix_oracle", 100000, check_compose_vs_matrix_oracle),
    ("compose.couple_uniformity", 10000, check_couple_uniformity),
    ("compose.nonintersecting_slide_vs_oracle", 10000, check_nonintersecting_slide_vs_oracle),
    ("screw.projection_constancy", 1000, check_projection_constancy),
    ("screw.norm_law", 1000, check_norm_law),
    ("screw.minimality", 1000, check_minimality),
    ("screw.midpoint_property", 200, check_midpoint_property),
    ("screw.chasles_roundtrip", 10000, check_chasles_roundtrip),
    ("screw.conjugate_invariant", 10000, check_conjugate_invariant_holds),
    ("pointfit.fit_roundtrip", 10000, check_fit_roundtrip),
    ("pointfit.fourth_point_prediction", 1000, check_fourth_point_prediction),
    ("pointfit.fit_vs_least_squares", 1000, check_fit_vs_least_squares),
    ("infinitesimal.linearization_order", 200, check_linearization_order),
    ("infinitesimal.virtual_work_bilinear", 1000, check_virtual_work_bilinear),
    ("infinitesimal.equilibrium_iff_basis", 1000, check_equilibrium_iff_basis),
    ("infinitesimal.center_representative_invariance", 1000, check_center_representative_invariance),
    ("oracle.bruteforce_vs_closed_form", 100000, check_bruteforce_vs_closed_form),
    ("cli.parse_print_roundtrip", 1000, check_parse_print_roundtrip),
]


def run_all(seed: int = 0, samples: int = 10000, tol: float = TOL_REFERENCE) -> list[CheckResult]:
    """Run the whole registry; deterministic for a given (seed, samples, tol).

    ``samples`` rescales every base count by samples/10000; ``tol`` rescales
    every threshold by tol/1e-9.
    """
    k = tol / TOL_REFERENCE
    scale = samples / 10000.0
    results = []
    for name, base, fn in REGISTRY:
        count = max(1, round(base * scale))
        # The suite's one pass/fail rule: the first comparison without
        # error <= bound (a NaN error included) fails the check and echoes its
        # sample, and a check that compares nothing fails.
        passed, detail = False, "no sample evaluated"
        try:
            for error, bound, echo in fn(_rng(seed, name), count, k):
                if not error <= bound:
                    passed, detail = False, echo()
                    break
                passed, detail = True, ""
        except ScrewAlgebraError as exc:  # a check tripping a guard is a failure
            passed, detail = False, f"unexpected error: {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, count, detail))
    return results
