"""The roadmap's Baseline probes, timed directly (tracing off).

Each probe reproduces one number of the Baseline list: the registry
self-test, radial-bowl's bodies over its 169-point grid with box samples,
the mean cost of one box sample / sampled body / Stampacchia test there,
kinked-threshold's Minty sweep on 201 points and a radial 10k-budget descent.
"""

from __future__ import annotations

import time

import prefmax as pm
from prefmax import fixtures as pm_fixtures
from prefmax import vip as pm_vip

PER_CALL_POINTS = 25  # radial ground points sampled for the per-call means


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t, result


def run() -> dict[str, float]:
    out = {}
    reg = pm_fixtures.registry(self_test=False)
    t = time.perf_counter()
    for fx in reg.values():
        pm_fixtures.self_test_fixture(fx)
    out["baseline.registry_self_test_s"] = time.perf_counter() - t

    radial = pm.get_fixture("radial-bowl")
    ground = radial.default_ground
    out["baseline.radial_bodies_for_ground_s"], bodies = _timed(
        pm_vip.bodies_for_ground, radial.relation, ground,
        contour_sampler=radial.contour_sampler)

    pts = list(ground)[:: max(1, len(ground) // PER_CALL_POINTS)][:PER_CALL_POINTS]
    t_box = t_body = t_svip = 0.0
    for x in pts:
        dt, sample = _timed(pm.box_sample, radial.relation, x, radial.sample_radius,
                            radial.sample_step)
        t_box += dt
        dt, body = _timed(pm.body_from_sample, sample)
        t_body += dt
        dt, _ = _timed(pm.svip_membership, bodies[x.coords], x, ground)
        t_svip += dt
    out["baseline.box_sample_ms"] = 1e3 * t_box / len(pts)
    out["baseline.body_from_sample_ms"] = 1e3 * t_body / len(pts)
    out["baseline.svip_membership_ms"] = 1e3 * t_svip / len(pts)

    kinked = pm.get_fixture("kinked-threshold")
    out["baseline.kinked_mvip_201_s"], _ = _timed(
        pm.mvip_solutions, kinked.cone_oracle, kinked.default_ground)

    dt, trace = _timed(pm.descend_fixture, "radial-bowl", (0.0, 0.0), max_iters=10_000)
    out["baseline.radial_descent_10k_ms"] = 1e3 * dt
    out["baseline.radial_descent_steps"] = float(len(trace) - 1)
    return out
