"""The four benchmark workloads: inputs from the seed, operations, gates.

Each builder runs the workload's own set-up (counted in setup_s) and
returns the operations of one pass.  An operation's check returns
(ok, values); values feed the report.  A probe is an operation that
reproduces a known defect of the program: it runs only in traced passes,
outside wall_s, the spans and the operation counts, and is reported as the
per-layer metrics <probe>.s and <probe>.failed_frac, so that a fix shows
without changing the timed mix.  Seed 0 gives the canonical inputs; other
seeds perturb them only in ways that keep the work per pass close to
constant, because a run's figures are compared across seeds.

Calls go through module attributes (spectral.top_eigenpair, not a name
imported here) so that the traced pass sees them through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from expanderlab import cli, dynamics, profiles, semigroup, spectral
from expanderlab.exponents import derived_exponents

DEFAULT_SEED = 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    probe: str = ""         # metric prefix of a defect probe


def demo(seed: int, workdir: Path) -> list:
    """The CLI demo end to end: the full pipeline, as a user runs it.

    Other seeds draw q from [1.5, 2.5].  q enters only the feasibility
    check and the logged norms, so every seed does the same selection work;
    r would change the number of alpha-bisection steps by up to 40%.
    """
    rng = random.Random(seed)
    d, p, r = 5, 3.0, 10.0
    q = 2.0 if seed == DEFAULT_SEED else round(rng.uniform(1.5, 2.5), 6)
    eps_target = 0.2 * (1.0 / (p - 1.0) - d / (2.0 * r))
    out = workdir / "demo"
    argv = ["demo", "--d", str(d), "--p", repr(p), "--q", repr(q),
            "--r", repr(r), "--out", str(out)]

    def check(code):
        raw = (out / "demo.json").read_bytes()
        rep = json.loads(raw)
        lam, gap = rep["lambda_bar"], rep["eigen_check_gap"]
        ok = (code == 0 and rep["pass"] is True and 0.0 < lam < eps_target
              and gap <= max(1e-4 * lam, 1e-6))
        artifact_bytes = sum(f.stat().st_size for f in out.iterdir()
                             if f.name != "run_meta.json")
        return ok, {"exit_code": code, "lambda_bar": lam, "eigen_gap": gap,
                    "artifact_bytes": artifact_bytes,
                    "digest": hashlib.sha256(raw).hexdigest()}

    return [Op("demo", lambda: cli.main(argv), check)]


CROSSVAL_FAMILIES = ((5, 3.0), (3, 2.0), (11, 7.0))
CROSSVAL_ALPHAS = (0.5, 5.0)


def _crossval_check(res):
    pair, mat, spec, n = res
    gap = abs(pair.lam - mat[0])
    sturm = (pair.zero_count == 0 and len(spec) == n and all(
        e.zero_count == k for k, e in enumerate(spec)))
    return gap <= max(1e-4 * abs(pair.lam), 1e-6) and sturm, {
        "lambda_top": pair.lam, "gap": gap, "n_positive": n}


def crossval(seed: int, workdir: Path) -> list:
    """Shooting against the weighted matrix away from the marginal alpha.

    The two ends of the acceptance alpha range on all three families:
    negative tops below alpha* and beyond Joseph-Lundgren (11, 7), large
    positive tops, and the finest resolving matrix grids.  Other seeds
    shuffle the order of the cases.  The alphas themselves stay fixed:
    moving them by even 1% moves the work per case by up to 50%, because
    the bisection paths change, and at (11, 7) it runs into the probe's
    defect.
    """
    grid = profiles.RadialGrid.uniform(16.0, 0.01)
    ops = []
    for d, p in CROSSVAL_FAMILIES:
        params = derived_exponents(d, p)
        cutoff = 1.0 / (p - 1.0) - d / 2.0 - 0.6
        for alpha in CROSSVAL_ALPHAS:
            # the matrix grid resolves the axis potential spike, whose width
            # scales like 1/sqrt(V(0))
            h = min(0.01, 0.5 / math.sqrt(p * alpha ** (p - 1.0)))
            mgrid = profiles.RadialGrid.uniform(16.0, h)

            def run(alpha=alpha, params=params, mgrid=mgrid, cutoff=cutoff):
                return (spectral.top_eigenpair(alpha, params, grid),
                        spectral.matrix_spectrum(alpha, params, mgrid,
                                                 cutoff=cutoff),
                        spectral.positive_spectrum(alpha, params, grid),
                        spectral.neutral_zero_count(alpha, params, grid))

            ops.append(Op(f"crossval-d{d}-p{p:g}-a{alpha:g}", run,
                          _crossval_check))
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(ops)

    # 0.5% above the acceptance alpha the glued top eigenfunction of (11, 7)
    # picks up spurious tail sign changes (zero count 1, glue defect 0.05)
    params, alpha = derived_exponents(11, 7.0), 5.023596998906852

    def sturm_probe():
        return spectral.eigenvalue_shoot(alpha, params, (-3.3, -3.1), grid)

    ops.append(Op("sturm-probe", sturm_probe,
                  lambda pair: (pair.zero_count == 0,
                                {"zero_count": pair.zero_count,
                                 "match_defect": pair.match_defect}),
                  probe="spectral.sturm_probe"))
    return ops


def _oracle_check(g: semigroup.GaussianDatum, tau: float, params, grid):
    exact = semigroup.apply_S0_gaussian(tau, g, params).values_on(grid.nodes)

    def check(out):
        err = float(np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)))
        return err <= 1e-6, {"oracle_err": err}

    return check


def semigroup_ops(seed: int, workdir: Path) -> list:
    """The quadrature path of the free semigroup, against two oracles.

    Three Gaussian times against the closed form and a compact bump against
    the L1 mass law.  Other seeds draw the Gaussian amplitude and variance
    from [0.5, 2].  The probe applies S0 in d = 4, where the angular
    quadrature raises QuadratureAccuracyError (the even-dimension defect)
    within milliseconds; d = 6 would spend seconds before failing.
    """
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        amp, var = 1.3, 0.8
    else:
        amp, var = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    params = derived_exponents(5, 3.0)
    grid = profiles.RadialGrid.uniform(16.0, 0.01)
    g = semigroup.GaussianDatum(amp, var)
    fin = semigroup.RadialFunction(grid=grid, values=g.values_on(grid.nodes))
    ops = [Op(f"gaussian-tau{tau:g}",
              lambda tau=tau: semigroup.apply_S0(tau, fin, params),
              _oracle_check(g, tau, params, grid))
           for tau in (1e-3, 0.1, 2.0)]

    bump = semigroup.RadialFunction(grid=grid, values=np.where(
        grid.nodes < 1.0, (1.0 - grid.nodes ** 2) ** 2, 0.0))
    tau_b = 0.05
    mass_in = semigroup.lq_norm(bump, 1.0, params.d)

    def mass_check(out):
        law = math.exp((1.0 / (params.p - 1.0) - params.d / 2.0) * tau_b)
        err = abs(semigroup.lq_norm(out, 1.0, params.d) / mass_in - law) / law
        return err <= 1e-6, {"mass_err": err}

    ops.append(Op("bump-mass", lambda: semigroup.apply_S0(tau_b, bump, params),
                  mass_check))

    params4 = derived_exponents(4, 3.0)
    ops.append(Op("even-d-probe",
                  lambda: semigroup.apply_S0(0.1, fin, params4),
                  _oracle_check(g, 0.1, params4, grid),
                  probe="semigroup.even_d_probe"))
    return ops


ALPHA_BAR = 1.7457421387208156      # the demo's selected profile
EPSILON = 0.003200604945139585      # the demo's branch amplitude


def dynamics_ops(seed: int, workdir: Path) -> list:
    """CN/IMEX stepping with the spectral work done in set-up.

    Fixed-dtau runs (band assembly once per dtau) next to a blow-up run cut
    by the stability cap (dtau changes almost every step).  Other seeds
    move the 0.9 and 1.1 scales by up to 5%; the static 1.0 run carries the
    drift gate and stays fixed.
    """
    rng = random.Random(seed)
    params = derived_exponents(5, 3.0)
    grid = profiles.RadialGrid.uniform()
    prof = profiles.shoot_profile(ALPHA_BAR, params, grid)
    pair = spectral.top_eigenpair(ALPHA_BAR, params, grid)
    pot = spectral.PotentialField.from_profile(prof)
    mode, lam = pair.f, pair.lam
    q, r = 2.0, 10.0

    ops = []
    for scale0 in (0.9, 1.0, 1.1):
        scale = scale0
        if scale0 != 1.0 and seed != DEFAULT_SEED:
            scale *= 1.0 + rng.uniform(-0.05, 0.05)

        def run(scale=scale):
            return dynamics.evolve_similarity(
                scale * prof.u, 0.0, 5.0, params, grid, dtau=0.005, q=q, r=r,
                reference=prof.u)

        def check(log, scale=scale):
            finite = bool(np.all(np.isfinite(log.final.v)))
            drift = float(np.max(np.abs(log.final.v - prof.u)))
            if scale == 1.0:
                return finite and drift <= 1e-5 * (1.0 + prof.max_abs_u), {
                    "static_drift": drift}
            # below the profile the flow decays, above it blows up
            grows = (log.blown_up
                     or np.max(np.abs(log.final.v)) > prof.max_abs_u)
            return finite and grows == (scale > 1.0), {
                "steps": len(log.taus) - 1}

        ops.append(Op(f"evolve-scale{scale0:g}", run, check))

    def rate_check(log):
        rate, _ = dynamics.fit_log_slope(log.taus, np.log(log.norms["lr"]))
        return abs(rate - lam) <= 1e-3, {"rate_gap": abs(rate - lam)}

    ops.append(Op("linearized-rate", lambda: dynamics.linearized_evolve(
        mode, pot, 0.0, 5.0, dtau=0.01, q=q, r=r), rate_check))

    def ladder():
        return {dt: dynamics.linearized_evolve(mode, pot, 0.0, 1.0, dtau=dt,
                                               q=q, r=r).final.v
                for dt in (0.04, 0.02, 0.01)}

    def ladder_check(runs):
        ratio = float(np.max(np.abs(runs[0.04] - runs[0.02]))
                      / np.max(np.abs(runs[0.02] - runs[0.01])))
        return abs(ratio - 4.0) <= 0.3, {"richardson": ratio}

    ops.append(Op("richardson-ladder", ladder, ladder_check))

    def branch_check(log):
        ex = log.extras
        return bool(ex["lower_bound_ok"] and ex["delta_ok"]), {
            "lower_bound_margin": ex["lower_bound_margin"],
            "fitted_delta": ex["fitted_delta"]}

    ops.append(Op("ancient-branch", lambda: dynamics.ancient_branch(
        pot, mode, lam, EPSILON, -12.0, -2.0, params, dtau=0.005, q=q, r=r),
        branch_check))
    return ops


WORKLOADS = {
    "demo": demo,
    "crossval": crossval,
    "semigroup": semigroup_ops,
    "dynamics": dynamics_ops,
}
