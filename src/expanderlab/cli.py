"""Command-line front end.

Every pipeline stage is a subcommand writing machine-readable artifacts:
CSV for tables (comma separator, '.' decimal, LF endings, mandatory header
row, resolved configuration echoed as leading '#' comment lines) and JSON
for reports (resolved configuration embedded under "config").  Repeated
runs with the same configuration produce byte-identical artifacts; wall
clock metadata goes to a separate run_meta.json.

Exit codes: 0 pass, 2 failed acceptance sub-check, 1 runtime error,
64 usage error, 65 invalid numeric domain.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import (
    DomainError,
    ExpanderLabError,
    NoUnstableExpanderError,
)
from .exponents import derived_exponents
from .profiles import RadialGrid, estimate_ell, shoot_profile, sweep_ell
from .semigroup import (
    GaussianDatum,
    apply_S0_gaussian,
    growth_rate_gaussian,
    verify_smoothing,
)
from .spectral import (
    ALPHA_STAR_BRACKET,
    find_alpha_star,
    matrix_spectrum,
    positive_spectrum,
)
from .dynamics import evolve_similarity, nonuniqueness_demo

USAGE_ERROR = 64
DOMAIN_ERROR = 65

COMMANDS = ("exponents", "profile", "ell-sweep", "alpha-star", "spectrum",
            "semigroup-check", "evolve", "demo")


@dataclasses.dataclass
class RunConfig:
    """Resolved configuration; echoed verbatim into every artifact."""

    command: str
    d: int = 5
    p: float = 3.0
    q: Optional[float] = None
    r: Optional[float] = None
    alpha: Optional[float] = None
    alpha_min: Optional[float] = None
    alpha_max: Optional[float] = None
    alpha_steps: int = 5
    rho_max: float = 16.0
    drho: float = 0.01
    dtau: float = 0.005
    eps: Optional[float] = None
    tau0: float = -12.0
    tau1: float = -2.0
    tol: float = 1e-6
    seed: int = 2024
    out: str = "."
    format: str = "both"
    scale: float = dataclasses.field(default=1.0, metadata={
        "help": "initial-data multiple of the profile (evolve)"})

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self):
        for name, value in self.as_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.alpha_steps < 1:
            raise DomainError("alpha_steps must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        for name in ("rho_max", "drho", "dtau", "tol"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.format not in ("csv", "json", "both"):
            raise DomainError("format must be csv, json or both")


# the type flags and config keys parse each field but command into;
# Optional[X] parses into X.  The annotations resolve in this namespace, not
# in sys.modules[__name__], which a runner such as `python -m trace` leaves
# unregistered.
_FIELD_TYPES = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in typing.get_type_hints(RunConfig, globals()).items()
    if name != "command"}


class UsageError(Exception):
    """A config-file value that does not parse as its field's type; the
    same value given as a flag is an argparse usage error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="expanderlab",
                     description="Radial expander laboratory for the "
                                 "focusing nonlinear heat equation")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file; command-line flags override")
    for f in dataclasses.fields(RunConfig)[1:]:
        parser.add_argument("--" + f.name.replace("_", "-"),
                            type=_FIELD_TYPES[f.name], default=None,
                            help=f.metadata.get("help"))
    parser.add_argument("--eigenfunctions", action="store_true",
                        help="also export eigenfunction CSVs (spectrum)")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line not key=value: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise DomainError(f"unknown config key {key!r}")
            kind = _FIELD_TYPES[key]
            try:
                setattr(cfg, key, kind(val))
            except ValueError:
                raise UsageError(f"config key {key}: invalid {kind.__name__} "
                                 f"value {val!r}") from None
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# artifact writers (byte stable for a fixed configuration)


def _json_text(payload: dict, cfg: RunConfig) -> str:
    doc = dict(payload)
    doc["config"] = cfg.as_dict()
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class ArtifactWriter:
    def __init__(self, cfg: RunConfig, eigenfunctions: bool = False):
        self.cfg = cfg
        self.eigenfunctions = eigenfunctions     # spectrum's extra CSVs
        self.outdir = Path(cfg.out)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.written = []

    def json(self, name: str, payload: dict):
        if self.cfg.format in ("json", "both"):
            path = self.outdir / f"{name}.json"
            path.write_text(_json_text(payload, self.cfg))
            self.written.append(str(path))

    def csv(self, name: str, rows):
        if self.cfg.format in ("csv", "both"):
            path = self.outdir / f"{name}.csv"
            # a line at a time: built as one string, the demo's trajectory
            # was the peak of a demo run's memory
            with path.open("w") as out:
                out.writelines(f"# {k}={v}\n"
                               for k, v in sorted(self.cfg.as_dict().items()))
                out.writelines(",".join(map(str, row)) + "\n" for row in rows)
            self.written.append(str(path))

    def meta(self):
        path = self.outdir / "run_meta.json"
        path.write_text(json.dumps(
            {"timestamp": time.time(), "version": __version__,
             "artifacts": sorted(self.written)}, sort_keys=True,
            indent=2) + "\n")


def _grid(cfg: RunConfig) -> RadialGrid:
    return RadialGrid.uniform(rho_max=cfg.rho_max, drho=cfg.drho)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_exponents(cfg: RunConfig, writer: ArtifactWriter) -> int:
    params = derived_exponents(cfg.d, cfg.p)
    writer.json("exponents", {"exponents": params.as_dict()})
    print(f"d={params.d} p={params.p} q_c={params.q_c} regime="
          f"{params.regime.value}")
    return 0


def _cmd_profile(cfg: RunConfig, writer: ArtifactWriter) -> int:
    if cfg.alpha is None:
        raise DomainError("profile requires --alpha")
    params = derived_exponents(cfg.d, cfg.p)
    prof = shoot_profile(cfg.alpha, params, _grid(cfg))
    ell, unc = estimate_ell(prof)
    writer.csv("profile", prof.to_csv_rows())
    writer.json("profile", {
        "alpha": prof.alpha, "ell": ell, "ell_uncertainty": unc,
        "residual_max": prof.residual_max,
        "zero_crossings": prof.zero_crossings,
        "max_abs_u": prof.max_abs_u})
    print(f"alpha={prof.alpha} ell={ell} residual_max={prof.residual_max}")
    return 0


def _cmd_ell_sweep(cfg: RunConfig, writer: ArtifactWriter) -> int:
    if cfg.alpha_min is None or cfg.alpha_max is None:
        raise DomainError("ell-sweep requires --alpha-min and --alpha-max")
    params = derived_exponents(cfg.d, cfg.p)
    alphas = np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_steps)
    sweep = sweep_ell([float(a) for a in alphas], params, _grid(cfg))
    writer.csv("ell_sweep", sweep.to_csv_rows())
    writer.json("ell_sweep", {
        "continuity_jump": sweep.continuity_jump,
        "rows": [{"alpha": r.alpha, "ell": r.ell,
                  "uncertainty": r.uncertainty, "residual": r.residual,
                  "error": r.error} for r in sweep.rows]})
    print(f"{len(sweep.rows)} rows, continuity jump {sweep.continuity_jump}")
    return 0


def _cmd_alpha_star(cfg: RunConfig, writer: ArtifactWriter) -> int:
    params = derived_exponents(cfg.d, cfg.p)
    lo = cfg.alpha_min if cfg.alpha_min is not None else ALPHA_STAR_BRACKET[0]
    hi = cfg.alpha_max if cfg.alpha_max is not None else ALPHA_STAR_BRACKET[1]
    res = find_alpha_star(params, bracket=(lo, hi), tol=cfg.tol,
                          grid=_grid(cfg))
    payload = {
        "alpha_star": res.alpha_star,
        "bracket": list(res.bracket),
        "zero_count_lo": 0,     # find_alpha_star refuses any other
        "zero_count_hi": res.zero_count_hi,
        "tolerance": res.tolerance,
        "monotone": res.monotone,
        "found": res.found,
    }
    if not res.found:
        payload["diagnostic"] = (
            f"no alpha* in bracket ({lo}, {hi}): neutral zero count is 0 "
            "everywhere sampled")
    writer.json("alpha_star", payload)
    if res.found:
        print(f"alpha* = {res.alpha_star} (bracket width "
              f"{res.bracket[1] - res.bracket[0]:.2e})")
        return 0
    print(payload["diagnostic"])
    return 2


def _cmd_spectrum(cfg: RunConfig, writer: ArtifactWriter) -> int:
    params = derived_exponents(cfg.d, cfg.p)
    grid = _grid(cfg)
    if cfg.alpha is not None:
        alphas = [cfg.alpha]
    elif cfg.alpha_min is not None and cfg.alpha_max is not None:
        alphas = [float(a) for a in np.linspace(cfg.alpha_min, cfg.alpha_max,
                                                cfg.alpha_steps)]
    else:
        raise DomainError("spectrum requires --alpha or an alpha range")

    rows = [("alpha", "lambda", "zero_count", "method")]
    pairs_for_export = []
    for alpha in alphas:
        pairs = positive_spectrum(alpha, params, grid)
        for pair in pairs:
            rows.append((repr(float(alpha)), repr(pair.lam),
                         str(pair.zero_count), "shooting"))
        pairs_for_export.extend((alpha, k, pair)
                                for k, pair in enumerate(pairs))
        for lam in matrix_spectrum(alpha, params, grid, cutoff=0.0):
            rows.append((repr(float(alpha)), repr(lam), "", "matrix"))
        if not pairs:
            rows.append((repr(float(alpha)), "", "0", "shooting"))
    writer.csv("spectrum", rows)
    writer.json("spectrum", {"rows": [
        {"alpha": a, "lambda": p_.lam, "zero_count": p_.zero_count,
         "method": "shooting", "l2w_norm": p_.l2w_norm}
        for a, _, p_ in pairs_for_export]})
    if writer.eigenfunctions:
        for alpha, k, pair in pairs_for_export:
            writer.csv(f"eigenfunction_{float(alpha)!r}_{k}",
                       pair.to_csv_rows())
    print(f"{len(rows) - 1} spectrum rows for {len(alphas)} alpha value(s)")
    return 0


def _cmd_semigroup_check(cfg: RunConfig, writer: ArtifactWriter) -> int:
    params = derived_exponents(cfg.d, cfg.p)
    rng = np.random.default_rng(cfg.seed)
    growth = {}
    ok = True
    # below Fujita q_c < 1, and L^q_c is no norm: only exponents >= 1
    for eta in [e for e in (1.0, 2.0, params.q_c, 2.0 * params.q_c)
                if e >= 1.0]:
        fitted = growth_rate_gaussian(eta, params)
        target = params.growth_exponent(eta)
        growth[f"eta={eta:g}"] = {"fitted": fitted, "target": target,
                                  "gap": abs(fitted - target)}
        ok = ok and abs(fitted - target) <= 1e-3

    samples = [GaussianDatum(1.0, float(v))
               for v in rng.uniform(0.3, 3.0, 3)]
    report = verify_smoothing(samples, params)
    ok = ok and report.passed

    # semigroup law spot check on the closed form
    g = GaussianDatum(1.0, 1.3)
    once = apply_S0_gaussian(0.7, g, params)
    twice = apply_S0_gaussian(0.3, apply_S0_gaussian(0.4, g, params), params)
    law_gap = max(abs(once.amplitude - twice.amplitude),
                  abs(once.variance - twice.variance))
    ok = ok and law_gap <= 1e-12

    writer.json("semigroup_check", {
        "growth_rates": growth,
        "smoothing": report.as_dict(),
        "semigroup_law_gap": law_gap,
        "pass": ok,
    })
    print(f"semigroup checks {'pass' if ok else 'FAIL'} "
          f"(law gap {law_gap:.2e}, smoothing M {report.fitted_M:.3f})")
    return 0 if ok else 2


def _cmd_evolve(cfg: RunConfig, writer: ArtifactWriter) -> int:
    if cfg.alpha is None:
        raise DomainError("evolve requires --alpha")
    params = derived_exponents(cfg.d, cfg.p)
    grid = _grid(cfg)
    prof = shoot_profile(cfg.alpha, params, grid)
    log = evolve_similarity(cfg.scale * prof.u, cfg.tau0, cfg.tau1, params,
                            grid, dtau=cfg.dtau, q=cfg.q, r=cfg.r,
                            reference=prof.u)
    writer.csv("trajectory", log.to_csv_rows())
    drift = float(np.max(np.abs(log.final.v - prof.u)))
    payload = {
        "alpha": cfg.alpha, "scale": cfg.scale,
        "tau0": cfg.tau0, "tau1": float(log.taus[-1]),
        "blown_up": log.blown_up, "final_drift_to_profile": drift,
        "steps": int(log.taus.size - 1),
    }
    exit_code = 0
    if cfg.scale == 1.0:
        tol = 1e-5 * (1.0 + prof.max_abs_u)
        payload["static_check"] = {"drift": drift, "tolerance": tol,
                                   "pass": drift <= tol}
        if drift > tol:
            exit_code = 2
    writer.json("evolve", payload)
    print(f"evolved to tau={log.taus[-1]:.3f}, drift {drift:.3e}"
          f"{' (blow-up)' if log.blown_up else ''}")
    return exit_code


def _cmd_demo(cfg: RunConfig, writer: ArtifactWriter) -> int:
    params = derived_exponents(cfg.d, cfg.p)
    report = nonuniqueness_demo(params, cfg.q, cfg.r, epsilon=cfg.eps,
                                grid=_grid(cfg), tau0=cfg.tau0,
                                tau1=cfg.tau1, dtau=cfg.dtau)
    writer.json("demo", report.as_dict())
    writer.csv("demo_trajectory", report.branch_log.to_csv_rows())
    status = "PASS" if report.passed else "FAIL"
    print(f"demo {status}: lambda_bar={report.lambda_bar:.6f} "
          f"slope={report.measured_slope:.4f} "
          f"(predicted {report.predicted_slope:.4f}, "
          f"R^2={report.slope_r2:.4f})")
    if report.passed:
        return 0
    print("failed checks: "
          + ", ".join(k for k, ok in report.checks.items() if not ok))
    return 2


_HANDLERS = {
    "exponents": _cmd_exponents,
    "profile": _cmd_profile,
    "ell-sweep": _cmd_ell_sweep,
    "alpha-star": _cmd_alpha_star,
    "spectrum": _cmd_spectrum,
    "semigroup-check": _cmd_semigroup_check,
    "evolve": _cmd_evolve,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        writer = ArtifactWriter(cfg, eigenfunctions=args.eigenfunctions)
        code = _HANDLERS[args.command](cfg, writer)
        writer.meta()
        return code
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except DomainError as exc:
        sys.stderr.write(f"invalid domain: {exc}\n")
        return DOMAIN_ERROR
    except NoUnstableExpanderError as exc:
        sys.stderr.write(f"no unstable expander: {exc}\n")
        return DOMAIN_ERROR
    except ExpanderLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
