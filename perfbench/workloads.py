"""The benchmark's workloads: seeded inputs, the timed library calls, and
the checks each result must pass.

Every input comes from ``bcdyn.validation.draw_params`` / ``draw_state``
driven by one ``numpy.random.Generator`` seeded from the benchmark seed.
A workload's ``make_inputs(bc, seed)`` returns its input pool and
``calls(bc, item)`` lists the timed calls for one input as
``(work, run, check)``: ``run()`` makes the library call(s) and returns the
result, ``check(result)`` returns ``None`` when the result is right and a
reason string when it is not.  Checks run outside the timed call.  A run
that needs more inputs than the pool holds cycles through it again.
"""
from __future__ import annotations

import numpy as np

# The planted scan instances: d in [0.5 d*, 1.5 d*] around the tumor-free
# transcritical point d* = (g1 I + m_d) / a2 of a k = 1 draw.  The sweep
# samples the range densely; the bifurcation scans it coarsely and bisects.
# Both calls then cost about the same number of find_all solves, so one
# latency distribution describes the workload, and both are short so that a
# run covers dozens of instances, whose costs differ widely.
SWEEP_POINTS = 8
BIFURCATE_POINTS = 2
BRACKET_REL_WIDTH = 0.05
# Where the analytic d* may sit outside a reported bracket by rounding only.
D_STAR_REL_TOL = 1e-9

# Stiff draws integrate a short span: each step is stability-limited, so
# the span only scales the step count, and a run then times hundreds of
# trajectories instead of tens.
STIFF_T_END = 20.0
STIFF_LOG10_RANGE = (2.0, 3.0)
STIFF_STRATA = 8
SAMPLE_COUNT = 101
ESTROGEN_REL_TOL = 1e-6


def catalog_call(bc, params):
    """find_all, then classify every confirmed point: one parameter set."""
    catalog = bc.find_all(params)
    reports = [bc.classify(eq, params) for eq in catalog if eq.confirmed]
    return catalog, reports


def check_catalog(bc, params, result) -> str | None:
    catalog, reports = result
    e_star = bc.estrogen_level(params)
    tol = bc.equilibria.CONFIRM_TOL
    confirmed = [eq for eq in catalog if eq.confirmed]
    for eq in confirmed:
        residual = bc.residual_norm(eq.point, params)
        if not residual < tol:
            return f"{eq.family} residual {residual:.3e} >= {tol:.0e}"
        if eq.point.E != e_star:
            return f"{eq.family} E = {eq.point.E!r} != estrogen_level {e_star!r}"
        if min(eq.point.as_tuple()) < 0.0:
            return f"{eq.family} has a negative component {eq.point}"
    if len(reports) != len(confirmed):
        return f"{len(reports)} reports for {len(confirmed)} confirmed points"
    return None


def check_sweep(rows, grid, d_star) -> str | None:
    """Each grid point has a tumor-free row that is stable below d* and
    unstable above it."""
    for v in grid:
        if abs(v - d_star) <= D_STAR_REL_TOL * d_star:
            continue
        expected = "stable" if v < d_star else "unstable"
        if not any(
            row["family"] == "tumor_free" and row["value"] == v and row.get("verdict") == expected
            for row in rows
        ):
            return f"no {expected} tumor-free row at d = {v!r} (d* = {d_star!r})"
    return None


def check_bifurcation(results, d_star) -> str | None:
    """A tumor-free crossing whose bracket contains the analytic d*."""
    slack = D_STAR_REL_TOL * d_star
    for res in results:
        lo, hi = res.bracketing_interval
        if res.equilibrium_family == "tumor_free" and lo - slack <= d_star <= hi + slack:
            return None
    found = [(r.equilibrium_family, r.bracketing_interval) for r in results]
    return f"no tumor-free bracket contains d* = {d_star!r}: {found}"


def check_trajectory(bc, params, x0, cfg, traj) -> str | None:
    worst = min(traj.positivity_violations)
    if worst < cfg.negativity_floor or float(traj.states.min()) < 0.0:
        return f"component below the negativity floor: {worst:.3e}"
    if traj.times[-1] != cfg.t_end:
        return f"ends at t = {traj.times[-1]!r}, not {cfg.t_end!r}"
    e_star = bc.estrogen_level(params)
    exact = e_star + (x0.E - e_star) * np.exp(-params.theta * traj.times)
    scale = max(x0.E, e_star, 1e-3)
    err = float(np.max(np.abs(traj.states[:, 3] - exact))) / scale
    if not err <= ESTROGEN_REL_TOL:
        return f"estrogen off its closed form by {err:.3e} relative"
    return None


class Catalog:
    """Independent draws: find_all and classify, no work shared."""

    name = "catalog"
    pool_size = 1024
    trace_items = 100

    def make_inputs(self, bc, seed):
        rng = np.random.default_rng(seed)
        return [bc.validation.draw_params(rng) for _ in range(self.pool_size)]

    def warm_up(self, bc):
        catalog_call(bc, bc.default_scenario().params)

    def calls(self, bc, params):
        return [(1, lambda: catalog_call(bc, params), lambda r: check_catalog(bc, params, r))]


class Scan:
    """Planted k = 1 instances: run_sweep then run_bifurcate over d."""

    name = "scan"
    pool_size = 48
    trace_items = 8

    def make_inputs(self, bc, seed):
        rng = np.random.default_rng(seed)
        base = bc.default_scenario()
        instances = []
        for _ in range(100 * self.pool_size):
            if len(instances) == self.pool_size:
                return instances
            pm = bc.validation.draw_params(rng, k=1.0)
            free = [eq for eq in bc.tumor_free(pm) if eq.confirmed]
            if not free:
                continue
            d_star = (pm.g1 * free[0].point.I + pm.m_d) / pm.a2
            lo, hi = 0.5 * d_star, 1.5 * d_star
            verdicts = []
            for d in (lo, hi):
                p = pm.replace(d=d)
                ends = [eq for eq in bc.tumor_free(p) if eq.confirmed]
                verdicts.append(bc.classify(ends[0], p).verdict if ends else None)
            if verdicts != ["stable", "unstable"]:
                continue
            scenario = bc.Scenario(
                params=pm, initial_state=base.initial_state, integration=base.integration,
                sample_count=base.sample_count, seed=base.seed, label="planted",
            )
            spec = bc.SweepSpec("d", bc.build_grid(lo, hi, SWEEP_POINTS))
            instances.append((scenario, spec, d_star, lo, hi))
        raise RuntimeError(f"found {len(instances)} of {self.pool_size} planted instances")

    def warm_up(self, bc):
        sc = bc.default_scenario()
        d = sc.params.d
        bc.run_sweep(sc, bc.SweepSpec("d", bc.build_grid(0.5 * d, 1.5 * d, 2)))

    def calls(self, bc, item):
        scenario, spec, d_star, lo, hi = item
        return [
            (
                SWEEP_POINTS,
                lambda: bc.run_sweep(scenario, spec),
                lambda rows: check_sweep(rows, spec.grid, d_star),
            ),
            (
                BIFURCATE_POINTS,
                lambda: bc.run_bifurcate(
                    scenario, "d", lo, hi,
                    scan_points=BIFURCATE_POINTS, bracket_rel_width=BRACKET_REL_WIDTH,
                ),
                lambda results: check_bifurcation(results, d_star),
            ),
        ]


class Stiff:
    """integrate over [0, 20] from draw_state initial states, with n_M and
    v_M scaled by a factor log-uniform in [1e2, 1e3], so the explicit step
    is limited by stability.

    The factor is stratified: each block of STIFF_STRATA draws takes one
    log-factor from each equal slice of the range, in a seeded order.  Every
    factor stays log-uniform; a run's mix of stiffness varies less between
    seeds, which keeps its medians steady.
    """

    name = "stiff"
    pool_size = 1024
    trace_items = 100

    def config(self, bc):
        return bc.IntegrationConfig(t0=0.0, t_end=STIFF_T_END)

    def make_inputs(self, bc, seed):
        rng = np.random.default_rng(seed)
        cfg = self.config(bc)
        draw_params, draw_state = bc.validation.draw_params, bc.validation.draw_state
        lo, hi = STIFF_LOG10_RANGE
        inputs = []
        for _ in range(self.pool_size // STIFF_STRATA):
            for slot in rng.permutation(STIFF_STRATA):
                params, x0 = draw_params(rng), draw_state(rng)
                u = (slot + rng.uniform()) / STIFF_STRATA
                factor = float(10.0 ** (lo + (hi - lo) * u))  # a numpy scalar slows the rhs
                scaled = params.replace(n_M=params.n_M * factor, v_M=params.v_M * factor)
                inputs.append((scaled, x0, cfg))
        return inputs

    def warm_up(self, bc):
        sc = bc.default_scenario()
        bc.integrate(sc.initial_state, sc.params, self.config(bc), SAMPLE_COUNT)

    def calls(self, bc, item):
        params, x0, cfg = item
        return [
            (
                1,
                lambda: bc.integrate(x0, params, cfg, SAMPLE_COUNT),
                lambda traj: check_trajectory(bc, params, x0, cfg, traj),
            )
        ]


WORKLOADS = {w.name: w for w in (Catalog(), Scan(), Stiff())}


def model_microbench(bc, seed: int, timer, cases: int = 8, repeats: int = 5) -> dict[str, float]:
    """Median microseconds per call of the make_rhs closure, jacobian and
    validate_params on fixed seeded (params, state) pairs; ``timer(fn)``
    returns the seconds ``fn()`` takes."""
    rng = np.random.default_rng([seed, 1])
    pairs = [(bc.validation.draw_params(rng), bc.validation.draw_state(rng)) for _ in range(cases)]

    def per_call_us(fn, args, n):
        def block():
            for _ in range(n):
                fn(*args)

        return timer(block) / n * 1e6

    rhs, jac, val = [], [], []
    for _ in range(repeats):
        for params, state in pairs:
            rhs.append(per_call_us(bc.make_rhs(params), state.as_tuple(), 2000))
            jac.append(per_call_us(bc.jacobian, (state, params), 200))
            val.append(per_call_us(bc.validate_params, (params,), 200))
    return {
        "model.rhs_call_us": float(np.median(rhs)),
        "model.jacobian_call_us": float(np.median(jac)),
        "model.validate_call_us": float(np.median(val)),
    }
