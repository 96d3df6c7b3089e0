"""Trace expanderlab from outside: wrap its layer boundaries, derive metrics.

Every wrapped name is patched wherever a module of the package binds it
(`from .spectral import select_unstable_expander` gives dynamics its own
binding), so a span records the call as the caller makes it.  Foreign
functions (scipy) are wrapped only in the module named for them, because
that is where the layer's work hides.  Nothing under src/ is edited.
"""

from __future__ import annotations

import importlib

from spans import Span, Tracer, ancestors, layer_self_times, percentile, wrap

LAYERS = ("exponents", "profiles", "spectral", "semigroup", "dynamics", "cli")

FUNCTIONS = {
    "exponents": ("joseph_lundgren", "derived_exponents", "check_feasibility",
                  "taylor_remainder_gap", "contraction_remainder_gap"),
    "profiles": ("integrate_profile", "shoot_profile", "profile_on_nodes",
                 "estimate_ell"),
    "spectral": ("neutral_zero_count", "find_alpha_star", "eigenvalue_shoot",
                 "_reconstruct_eigenfunction", "top_eigenpair",
                 "positive_spectrum", "matrix_spectrum",
                 "select_unstable_expander"),
    "semigroup": ("apply_S0", "apply_S0_gaussian", "lq_norm",
                  "_angular_factor"),
    "dynamics": ("evolve_similarity", "linearized_evolve",
                 "evolve_perturbation", "ancient_branch",
                 "nonuniqueness_demo"),
    "cli": ("main", "resolve_config"),
}

METHODS = {
    ("spectral", "_PhaseShooter"): ("theta_end", "solve_f"),
    ("dynamics", "_CrankNicolson"): ("step", "_factorized"),
    ("dynamics", "_NormKit"): ("lebesgue", "weighted_l2"),
    ("cli", "ArtifactWriter"): ("json", "csv", "meta"),
}

SEAMS = {
    "spectral": ("solve_ivp", "eigvalsh_tridiagonal"),
    "dynamics": ("solve_banded",),
}

# demo stage -> the call nonuniqueness_demo makes for it
DEMO_STAGES = {
    "alpha_star_s": "spectral.find_alpha_star",
    "selection_s": "spectral.select_unstable_expander",
    "matrix_check_s": "spectral.matrix_spectrum",
    "static_drift_s": "dynamics.evolve_similarity",
    "linearized_rate_s": "dynamics.linearized_evolve",
    "ancient_branch_s": "dynamics.ancient_branch",
}

THETA_END = "spectral._PhaseShooter.theta_end"
EIGENVALUE_SHOOT = "spectral.eigenvalue_shoot"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# -- hooks: before() returning False runs the call without a span ----------

def _theta_end_before(tracer: Tracer, args, kwargs):
    shooter, lam = args[0], _arg(args, kwargs, 1, "lam")
    tracer.count("spectral.theta_end.lookups")
    current = tracer.current()
    if current is not None and current.name == EIGENVALUE_SHOOT:
        tracer.count("spectral.eigenvalue_shoot.miss_evals")
    if float(lam) in shooter._theta_cache:
        tracer.count("spectral.theta_end.hits")
        return False
    return True


def _factorized_before(tracer, args, kwargs):
    stepper, dtau = args[0], _arg(args, kwargs, 1, "dtau")
    return stepper._dtau != dtau        # a band (re)assembly


def _nfev_after(tracer, span, args, kwargs, result):
    sol = result[0] if isinstance(result, tuple) else result
    span.attrs["nfev"] = int(sol.nfev)


def _lam_after(tracer, span, args, kwargs, result):
    span.attrs["lam"] = float(result.lam)


def _select_after(tracer, span, args, kwargs, result):
    span.attrs["eps_target"] = float(_arg(args, kwargs, 1, "eps_target"))


def _matrix_after(tracer, span, args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    m = int(round(grid.rho_max / grid.drho))
    span.attrs["unknowns"] = m + int(round(grid.rho_max / (grid.drho / 2.0)))


def _apply_s0_after(tracer, span, args, kwargs, result):
    span.attrs["nodes"] = int(result.values.size)


HOOKS = {
    THETA_END: (_theta_end_before, None),
    "dynamics._CrankNicolson._factorized": (_factorized_before, None),
    "spectral.solve_ivp": (None, _nfev_after),
    "profiles.integrate_profile": (None, _nfev_after),
    "spectral.top_eigenpair": (None, _lam_after),
    "spectral.select_unstable_expander": (None, _select_after),
    "spectral.matrix_spectrum": (None, _matrix_after),
    "semigroup.apply_S0": (None, _apply_s0_after),
}


def _wrapped(tracer, fn, name, layer):
    before, after = HOOKS.get(name, (None, None))
    return wrap(tracer, fn, name, layer, before=before, after=after)


def install(tracer: Tracer) -> None:
    """Patch every boundary listed above to record into tracer."""
    modules = {m: importlib.import_module(f"expanderlab.{m}") for m in LAYERS}
    for layer, names in FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            traced = _wrapped(tracer, original, f"{layer}.{fname}", layer)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for mname in names:
            setattr(cls, mname, _wrapped(tracer, getattr(cls, mname),
                                         f"{layer}.{cls_name}.{mname}", layer))
    for layer, names in SEAMS.items():
        for fname in names:
            setattr(modules[layer], fname, _wrapped(
                tracer, getattr(modules[layer], fname), f"{layer}.{fname}",
                layer))


def work_counts(tracer: Tracer) -> dict:
    """Machine-independent work: calls per span name, cache lookups and
    RHS evaluations.  Identical inputs must give identical counts."""
    counts = dict(tracer.counts)
    for s in tracer.spans:
        counts[f"calls:{s.name}"] = counts.get(f"calls:{s.name}", 0) + 1
        if "nfev" in s.attrs:
            key = f"nfev:{s.name}"
            counts[key] = counts.get(key, 0) + s.attrs["nfev"]
    return dict(sorted(counts.items()))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value for one traced pass."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(name):
        return named.get(name, [])

    def total(name):
        return sum(s.duration for s in of(name))

    def under(name, ancestor):
        return [s for s in of(name)
                if any(a.name == ancestor for a in ancestors(s, by_id))]

    m = {}
    self_by_layer = layer_self_times(spans)
    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    m["trace.wall_s"] = total("bench.op")
    m["exponents.calls"] = sum(1 for s in spans if s.layer == "exponents")

    m["profiles.integrate_profile.calls"] = len(of("profiles.integrate_profile"))
    m["profiles.integrate_profile.s"] = total("profiles.integrate_profile")
    m["profiles.rhs_evals"] = sum(s.attrs["nfev"]
                                  for s in of("profiles.integrate_profile"))

    phase = of(THETA_END)
    m["spectral.phase_integrations"] = len(phase)
    m["spectral.phase_rhs_evals"] = sum(
        s.attrs["nfev"] for s in of("spectral.solve_ivp")
        if by_id[s.parent].name == THETA_END)
    ms = [1e3 * s.duration for s in phase]
    m["spectral.theta_end.ms_p50"] = percentile(ms, 50)
    m["spectral.theta_end.ms_p90"] = percentile(ms, 90)
    lookups = tracer.counts["spectral.theta_end.lookups"]
    m["spectral.theta_end.cache_hit_ratio"] = (
        tracer.counts["spectral.theta_end.hits"] / lookups if lookups else 0.0)

    select = of("spectral.select_unstable_expander")
    tried = under("spectral.top_eigenpair", "spectral.select_unstable_expander")
    eps = {s.id: s.attrs["eps_target"] for s in select}
    accepted = [s for s in tried if 0.0 < s.attrs["lam"] < next(
        eps[a.id] for a in ancestors(s, by_id) if a.id in eps)]
    m["spectral.select.s"] = total("spectral.select_unstable_expander")
    m["spectral.select.top_eigenpair_calls"] = len(tried)
    m["spectral.select.accept_ratio"] = (len(accepted) / len(tried)
                                         if tried else 0.0)
    m["spectral.find_alpha_star.s"] = total("spectral.find_alpha_star")
    m["spectral.find_alpha_star.evaluations"] = len(
        under("spectral.neutral_zero_count", "spectral.find_alpha_star"))
    m["spectral.top_eigenpair.calls"] = len(of("spectral.top_eigenpair"))
    m["spectral.top_eigenpair.s"] = total("spectral.top_eigenpair")
    m["spectral.eigenvalue_shoot.miss_evals"] = tracer.counts[
        "spectral.eigenvalue_shoot.miss_evals"]
    m["spectral.eigenfunction.s"] = total("spectral._reconstruct_eigenfunction")
    m["spectral.positive_spectrum.s"] = total("spectral.positive_spectrum")
    m["spectral.matrix_spectrum.calls"] = len(of("spectral.matrix_spectrum"))
    m["spectral.matrix_spectrum.s"] = total("spectral.matrix_spectrum")
    m["spectral.matrix_spectrum.unknowns"] = sum(
        s.attrs["unknowns"] for s in of("spectral.matrix_spectrum"))
    m["spectral.matrix_eigensolves"] = len(of("spectral.eigvalsh_tridiagonal"))

    apply = of("semigroup.apply_S0")
    nodes = sum(s.attrs["nodes"] for s in apply)
    m["semigroup.apply_S0.calls"] = len(apply)
    m["semigroup.apply_S0.s"] = total("semigroup.apply_S0")
    m["semigroup.apply_S0.node_ms"] = (1e3 * m["semigroup.apply_S0.s"] / nodes
                                       if nodes else 0.0)
    m["semigroup.angular_factor.calls"] = len(of("semigroup._angular_factor"))
    m["semigroup.angular_factor.s"] = total("semigroup._angular_factor")

    steps = of("dynamics._CrankNicolson.step")
    m["dynamics.cn_steps"] = len(steps)
    m["dynamics.cn_step.ms_p50"] = percentile(
        [1e3 * s.duration for s in steps], 50)
    m["dynamics.band_assemblies"] = len(of("dynamics._CrankNicolson._factorized"))
    m["dynamics.banded_solves"] = len(of("dynamics.solve_banded"))
    m["dynamics.banded_solves.s"] = total("dynamics.solve_banded")
    m["dynamics.norm_eval.s"] = (total("dynamics._NormKit.lebesgue")
                                 + total("dynamics._NormKit.weighted_l2"))
    for fn in ("evolve_similarity", "linearized_evolve",
               "evolve_perturbation", "ancient_branch"):
        m[f"dynamics.{fn}.s"] = total(f"dynamics.{fn}")

    m["cli.write_s"] = sum(total(f"cli.ArtifactWriter.{k}")
                           for k in ("json", "csv", "meta"))
    for stage, name in DEMO_STAGES.items():
        m[f"demo.stage.{stage}"] = sum(
            s.duration for s in under(name, "dynamics.nonuniqueness_demo"))
    return m
