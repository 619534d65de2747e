"""Batch front-end: `mlq generate|verify|closing|family --config cfg.json`.

Configs are versioned JSON (``schema: 1``), read by ``load_config`` alone:
``_as`` reads every value, and one that is malformed, missing or not a key
of its object is a config error naming it.  Every command runs serially,
and only the layer modules it calls: ``frames`` (which runs the ``iwasawa``
split), ``verify`` and ``closedform`` are imported in the commands that call
them, so a config read and a trinoid ``closing`` run neither frames nor the
split.  A grid command hands ``frames`` the whole grid, which runs it a block
at a time; ``verify`` and ``family`` read each node's table as it is yielded.
BLAS runs on one thread unless OPENBLAS/OMP/MKL_NUM_THREADS say otherwise (a
process that imported numpy before ``mlq.cli`` keeps its own), as the count
can change the last bits of the split's Cholesky: identical configs produce
byte-identical CSV/JSON, and OBJ floats are written with 17 significant
digits.  ``--jobs`` is ignored.  Exit codes: 0 all checks pass, 1 checks
failed, 2 usage/config error, 3 numerical failure.  ``run()`` freezes the
heap after the command, so the exit skips the collector's walk of numpy's
and mlq's ~23k objects; ``main(argv)``, the in-process entry, leaves it alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import NamedTuple, NoReturn

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read when numpy loads BLAS, below

import numpy as np

from . import __version__
from .loops import DEFAULT_WINDOW_N, ct2, inv2, mul2
from .potentials import (EPS_POLE, CustomTerm, GridSpec, IntegrationError, OdeCounts, OdeOptions, Potential,
                         custom_spec, equivariant_spec, make_potential, radial_spec, sphere_spec, torus_spec,
                         trinoid_spec)


def _bind_lazily(*names: str) -> None:
    """Bind each mlq.<name> not yet in sys.modules to a module whose body runs on first access, in the
    command that calls it.  Only perfbench/layer_trace.install needs this, as it reads every layer there
    after ``import mlq.cli``; once install imports each layer itself, delete this and keep the local imports."""
    for name in names:
        if f"{__package__}.{name}" not in sys.modules:
            spec = importlib.util.find_spec(f".{name}", __package__)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
            setattr(sys.modules[__package__], name, module)
            spec.loader.exec_module(module)


_bind_lazily("holonomy", "frames", "iwasawa", "verify", "closedform")

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: residual keys a verify run gates on when the config lists a tolerance
GATEABLE = (
    "alpha_holomorphy",
    "beta_phase",
    "phi_norm",
    "quadric",
    "horizontality",
    "sinh_gordon",
    "metric_identity",
    "relation_e2u",
    "conformal",
    "lagrangian",
    "harmonic",
    "jacobian_sum",
    "gauss",
)

#: every tolerance name a config may carry: the verify residuals plus the
#: bounds read by closing and family
TOLERANCE_NAMES = GATEABLE + ("monodromy_product", "family")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class RunConfig(NamedTuple):
    #: the potential ``load_config`` built from the config's spec to validate it; every command runs on it
    pot: Potential
    grid: GridSpec
    lambda0: complex
    sweep: int | None
    truncation_n: int
    ode: OdeOptions
    fd_step: float
    tolerances: dict[str, float]
    output_dir: Path
    raw: dict
    #: the spec ``pot`` was built from, read off it
    spec = property(lambda self: self.pot.spec)


def _as(kind, value, name: str, positive: bool = False):
    """value read as kind: int or float ("10" reads as 10), complex (a number
    or exactly [re, im]), a list [kind], or a function kind(value, name) that
    reads a config object.  A ConfigError names the key, or the list entry
    (``name.0``), if value is none of these (a bool is no number, an int has
    no fraction, a float is finite) or is not positive where it must be."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_as(kind[0], v, f"{name}.{i}") for i, v in enumerate(value))
    if kind is complex:
        if isinstance(value, list) and len(value) != 2:
            raise ConfigError(f"{name} must be a number or [re, im], got {value!r}")
        return complex(*_as([float], value, name)) if isinstance(value, list) else complex(_as(float, value, name))
    if kind not in (int, float):
        return kind(value, name)
    try:
        out = kind(value)
        if isinstance(value, bool) or (kind is int and out != float(value)) or not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} cannot be read as {kind.__name__}: {value!r}") from None
    if positive and not out > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return out


def _object(value, name: str, kinds: dict, make):
    """make(**keys) of the config object value, or of the whole config where
    name is "": kinds maps each key it takes to the kind ``_as`` reads, or to
    (kind, default) where the key may be left out.  A ConfigError names a
    missing key or one the object does not take, and holds make's ValueError
    (or overflow) as "bad <name>"."""
    where, prefix = (name, f"{name}.") if name else ("config", "")
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    unknown = sorted(value.keys() - kinds.keys())
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]} is not a key of {where} (it takes {', '.join(kinds)})")
    keys = {}
    for key, kind in kinds.items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        if key not in value and not default:
            raise ConfigError(f"{prefix}{key} is missing")
        keys[key] = _as(kind, value[key], f"{prefix}{key}") if key in value else default[0]
    try:
        return make(**keys)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _term(value, name: str) -> CustomTerm:
    return _object(value, name, {"lam_power": int, "matrix": [[complex]], "num": ([complex], (1 + 0j,)),
                                 "den": ([complex], (1 + 0j,))}, CustomTerm)


#: each family's spec constructor and the kinds of its parameters, by variant
_FAMILIES = {
    "sphere": (sphere_spec, {}),
    "torus": (torus_spec, {}),
    "equivariant": (equivariant_spec, {"a": float, "b": float, "c": (float, 0.0)}),
    "radial": (radial_spec, {"c": complex, "k": int}),
    "trinoid": (trinoid_spec, {"lambda0": complex, "v0": float, "v1": float, "vinf": float}),
    "custom": (custom_spec, {"terms": [_term], "poles": ([complex], ()), "base_point": complex}),
}


def _schema(value, name: str) -> int:
    if value != SCHEMA:
        raise ConfigError(f"unsupported {name} {value!r} (expected {SCHEMA})")
    return value


def _potential(value, name: str) -> Potential:
    # a list, so that a variant that is not hashable is not in it either
    if not isinstance(value, dict) or value.get("variant") not in [*_FAMILIES]:
        raise ConfigError(f"config needs a '{name}' object with a variant of {[*_FAMILIES]}, got {value!r}")
    make_spec, kinds = _FAMILIES[value["variant"]]
    return _object({k: v for k, v in value.items() if k != "variant"}, name, kinds,
                   lambda **params: make_potential(make_spec(**params)))


def _grid(value, name: str) -> GridSpec:
    grid = _object(value, name, {"re_min": float, "re_max": float, "n_re": int,
                                 "im_min": float, "im_max": float, "n_im": int}, GridSpec)
    if grid.n_re < 2 or grid.n_im < 2:
        raise ConfigError("grid counts must be at least 2 per axis")
    return grid


def _lambda0(value, name: str) -> complex:
    lam = _object(value, name, {"re": (float, 1.0), "im": (float, 0.0)}, lambda re, im: complex(re, im))
    if not abs(math.hypot(lam.real, lam.imag) - 1.0) <= 1e-12:
        raise ConfigError(f"|lambda0| must be 1, got {lam!r}")
    return lam


def _tolerances(value, name: str) -> dict[str, float]:
    # the bounds the config gives, and no others
    return _object(value, name, dict.fromkeys(TOLERANCE_NAMES, (float, None)),
                   lambda **bounds: {k: v for k, v in bounds.items() if v is not None})


def _path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return Path(value)


#: every top-level key of a config and its kind; family reads sweep and
#: ignores lambda0, but a lambda0 is checked wherever it is given
_CONFIG = {
    "schema": _schema,
    "potential": _potential,
    "grid": _grid,
    "lambda0": (_lambda0, 1 + 0j),
    "ode": (partial(_object, kinds={"tolerance": (float, 1e-10)}, make=OdeOptions), OdeOptions()),
    "sweep": (int, None),
    "truncation_N": (partial(_as, int, positive=True), DEFAULT_WINDOW_N),
    "fd_step": (partial(_as, float, positive=True), 1e-3),
    "tolerances": (_tolerances, {}),
    "output_dir": (_path, Path("out")),
}


def load_config(path: str | Path) -> RunConfig:
    """The run config at path; a ConfigError names its first bad value."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _object(raw, "", _CONFIG, lambda schema, potential, truncation_N, **keys: RunConfig(
        pot=potential, truncation_n=truncation_N, raw=raw, **keys))


# ---------------------------------------------------------------------------
# writers


def _write_json(path: Path, cfg: RunConfig, record: dict) -> None:
    """record under the run's schema, version and config, keys sorted, in its directory made if need be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": SCHEMA, "version": __version__, "config": cfg.raw, **record},
                               sort_keys=True, indent=2) + "\n")


def _write_obj(path: Path, verts: list, grid: GridSpec) -> None:
    """Triangulated graph over the grid; invalid vertices keep their slot."""
    ok = [v is not None for v in verts]
    lines = ["v %.17g %.17g %.17g" % tuple(v) if v is not None else "v 0 0 0" for v in verts]
    for j in range(grid.n_im - 1):
        for a in range(j * grid.n_re, (j + 1) * grid.n_re - 1):
            b, c, d = a + 1, a + grid.n_re, a + grid.n_re + 1
            if ok[a] and ok[b] and ok[c]:
                lines.append(f"f {a + 1} {b + 1} {c + 1}")
            if ok[b] and ok[d] and ok[c]:
                lines.append(f"f {b + 1} {d + 1} {c + 1}")
    path.write_text("\n".join(lines) + "\n")


_CSV_HEADER = (
    ["z_re", "z_im"]
    + [f"q2_{i}_{p}" for i in range(4) for p in ("re", "im")]
    + [f"s3f_{i}" for i in range(4)]
    + [f"s3n_{i}" for i in range(4)]
    + ["s2a_x", "s2a_y", "s2a_z", "s2b_x", "s2b_y", "s2b_z"]
)
#: a valid sample's CSV row: z, then its 22 cells in header order
_CSV_ROW = ",".join(["%.17g"] * len(_CSV_HEADER))


def _csv_row(s) -> str:
    if not s.valid:
        return "%.17g,%.17g" % (s.z.real, s.z.imag) + ",nan" * 22
    # q2_hom is a complex128 row, so its float64 view is its re/im pairs in order
    return _CSV_ROW % (s.z.real, s.z.imag, *s.q2_hom.view(np.float64).tolist(), *s.s3_pair[0].tolist(),
                       *s.s3_pair[1].tolist(), *s.s2_pair[0].tolist(), *s.s2_pair[1].tolist())


def _write_csv(path: Path, samples: list) -> None:
    lines = [",".join(_CSV_HEADER)]
    lines += [_csv_row(s) for s in samples]
    path.write_text("\n".join(lines) + "\n")


def _grid_pole_check(pot: Potential, grid: GridSpec) -> None:
    for p in pot.singular_points:
        for z in grid.nodes():
            if abs(z - p) < EPS_POLE:
                raise ConfigError(
                    f"grid intersects singular set (node {z} near pole {p})"
                )


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: RunConfig, out_dir: Path) -> int:
    from .frames import SurfaceMap
    _grid_pole_check(cfg.pot, cfg.grid)
    smap = SurfaceMap(cfg.pot, cfg.lambda0, window=cfg.truncation_n, ode=cfg.ode)
    samples = smap.samples(cfg.grid.nodes())

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "surface.csv", samples)
    _write_obj(out_dir / "factor1.obj",
               [s.s2_pair[0] if s.valid else None for s in samples], cfg.grid)
    _write_obj(out_dir / "factor2.obj",
               [s.s2_pair[1] if s.valid else None for s in samples], cfg.grid)

    failures = [
        {"index": i, "z_re": s.z.real, "z_im": s.z.imag, "error": s.error}
        for i, s in enumerate(samples)
        if not s.valid
    ]
    meta = {
        "truncation_N": cfg.truncation_n,
        "n_nodes": len(samples),
        "n_failed": len(failures),
        "failures": failures,
        "max_unitarity_error": max(
            (s.diagnostics["unitarity_error"] for s in samples if s.valid and s.diagnostics),
            default=None,
        ),
        **_ode_record(smap.ode_counts),
        **_split_record([s.diagnostics for s in samples if s.valid]),
    }
    _write_json(out_dir / "meta.json", cfg, meta)
    if failures and len(failures) == len(samples):
        print("all grid nodes failed; see meta.json", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {len(samples)} nodes to {out_dir} ({len(failures)} failed)")
    return EXIT_OK


def _ode_record(counts: OdeCounts) -> dict:
    """A command's ODE totals: Taylor pieces, series terms and det drift."""
    return {"ode_steps": counts.steps, "ode_terms": counts.terms, "ode_det_drift": counts.det_drift}


def _split_record(diagnostics: list[dict]) -> dict:
    """The windows, sections, edge masses and split residuals of the valid nodes' splits."""
    masses = [d["edge_mass"] for d in diagnostics]
    resids = [d["split_residual"] for d in diagnostics]
    return {
        "window_counts": _counts(d["window"] for d in diagnostics),
        "section_counts": _counts(d["section"] for d in diagnostics),
        # the largest relative edge mass of P that a valid node's split left, and its log10 histogram
        "max_edge_mass": max(masses, default=None), "edge_mass_histogram": _histogram(masses),
        # the largest relative residual B* B - P that a valid node's split accepted, and its log10 histogram
        "max_split_residual": max(resids, default=None), "split_residual_histogram": _histogram(resids),
    }


def _counts(values) -> dict[str, int]:
    """How many valid nodes had each window N (or section size), keyed by str(N)."""
    return {str(n): count for n, count in sorted(Counter(values).items())}


def _histogram(values: list[float]) -> dict:
    """log10 histogram on fixed bins [-16, 0] (deterministic across runs)."""
    edges = list(range(-16, 1))
    counts = [0] * (len(edges) - 1)
    for v in values:
        if v <= 0 or not np.isfinite(v):
            continue
        b = int(np.floor(np.log10(v))) + 16
        counts[min(max(b, 0), len(counts) - 1)] += 1
    return {"log10_bin_edges": edges, "counts": counts}


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    from .frames import SurfaceMap
    from .verify import node_reports
    _grid_pole_check(cfg.pot, cfg.grid)
    smap = SurfaceMap(cfg.pot, cfg.lambda0, window=cfg.truncation_n, ode=cfg.ode)
    h = cfg.fd_step

    def node_entry(z: complex, rep) -> dict:
        if isinstance(rep, Exception):
            return {"z_re": z.real, "z_im": z.imag, "valid": False, "error": str(rep)}
        rep, geo, cu = rep
        residuals = {**rep.residuals, "conformal": geo.conformal_residual, "lagrangian": geo.lagrangian_residual,
                     "harmonic": geo.harmonic_residual, "jacobian_sum": geo.jacobian_sum, "gauss": cu.gauss_residual}
        return {
            "z_re": z.real,
            "z_im": z.imag,
            "valid": True,
            "window": rep.window,
            "section": rep.section,
            "edge_mass": rep.edge_mass,
            "split_residual": rep.split_residual,
            "u": rep.u,
            "u_hat": rep.u_hat,
            "alpha": [rep.alpha.real, rep.alpha.imag],
            "beta": [rep.beta.real, rep.beta.imag],
            "C": cu.C,
            "Theta": [cu.Theta.real, cu.Theta.imag],
            "theta_match": abs(cu.Theta - 2 * rep.alpha),
            "jacobian_match": cu.jacobian_match,
            "gauss_skipped": cu.gauss_skipped,
            "residuals": residuals,
        }

    nodes = cfg.grid.nodes()
    reports = [node_entry(z, rep) for z, rep in zip(nodes, node_reports(smap, nodes, h))]
    valid = [r for r in reports if r["valid"]]
    if not valid:
        print("no grid node produced a report", file=sys.stderr)
        return EXIT_NUMERICAL

    # a node whose gauss term was skipped did not evaluate it: its truncated
    # value stays in the node record but reaches no maximum, histogram or gate
    evaluated = {
        k: [r["residuals"][k] for r in valid if k != "gauss" or not r["gauss_skipped"]]
        for k in GATEABLE
    }
    max_residuals = {k: max(v) for k, v in evaluated.items() if v}
    histograms = {k: _histogram(evaluated[k]) for k in max_residuals}
    # a configured gate that no node evaluated fails rather than passing empty
    checks = {}
    for name, bound in cfg.tolerances.items():
        if name in GATEABLE:
            worst = max_residuals.get(name)
            checks[name] = {"max": worst, "bound": bound, "evaluated": len(evaluated[name]),
                            "pass": worst is not None and bool(worst <= bound)}
    passed = all(c["pass"] for c in checks.values())

    _write_json(out_dir / "report.json", cfg, {
        "nodes": reports,
        "n_failed": len(reports) - len(valid),
        "n_gauss_skipped": sum(r["gauss_skipped"] for r in valid),
        "max_residuals": max_residuals,
        "histograms": histograms,
        **_split_record(valid),
        **_ode_record(smap.ode_counts),
        "checks": checks,
        "pass": passed,
    })
    for name, c in sorted(checks.items()):
        if c["max"] is None:
            print(f"FAIL {name}: no node evaluated it")
        else:
            print(f"{'PASS' if c['pass'] else 'FAIL'} {name}: max {c['max']:.3e} <= {c['bound']:.1e}")
    if not passed:
        return EXIT_CHECKS_FAILED
    print(f"verify: {len(valid)} nodes, all configured checks pass")
    return EXIT_OK


_CLOSING_SAMPLES = (0.8 + 0.2j, 1.1 - 0.4j, -0.6 + 0.9j)


def _unitarity(m: np.ndarray) -> list[float]:
    """max ||m m* - I|| (Frobenius) over each stack m[i] of 2x2 matrices."""
    dev = np.linalg.norm(mul2(m, ct2(m)) - np.eye(2), axis=(-2, -1))
    return dev.reshape(len(m), -1).max(axis=1).tolist()


def cmd_closing(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.pot.variant == "equivariant":
        from .closedform import cylinder_closing
        from .frames import SurfaceMap
        from .verify import DeckTransform, symmetry_check
        p = cfg.pot.spec.params
        rep = cylinder_closing(p["a"], p["b"], p["c"], cfg.lambda0)
        smap = SurfaceMap(cfg.pot, cfg.lambda0, window=cfg.truncation_n, ode=cfg.ode)
        try:
            deck = symmetry_check(smap, DeckTransform(), _CLOSING_SAMPLES)
        except ValueError as exc:  # a frame that fails the SU(2) gate, or a sample at the pole
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        payload = {
            "family": "equivariant",
            "closing": {
                "mu1": rep.mu1,
                "mu2": rep.mu2,
                "closes_q2": rep.closes_q2,
                "closes_s3": rep.closes_s3,
            },
            "deck_residual": deck,
        }
        _write_json(out_dir / "closing.json", cfg, payload)
        print(f"mu = ({rep.mu1:.12g}, {rep.mu2:.12g}) closes_q2={rep.closes_q2} "
              f"closes_s3={rep.closes_s3} deck residual {deck:.3e}")
        return EXIT_OK if rep.closes_q2 else EXIT_CHECKS_FAILED

    if cfg.pot.variant == "trinoid":
        from .closedform import trinoid_admissible, trinoid_closing_check, trinoid_monodromies
        from .holonomy import unitarizing_gauge
        p = cfg.pot.spec.params
        lam0 = p["lambda0"]
        adm = trinoid_admissible(lam0, p["v0"], p["v1"], p["vinf"])
        # (lam0, -i lam0) and 8 circle samples, all in the one transport of the three loops
        circle = [np.exp(1j * np.pi * (k / 4 + 0.07)) for k in range(8)]
        counts = OdeCounts()
        mono = trinoid_monodromies(cfg.pot, [lam0, -1j * lam0, *circle], cfg.ode, counts)
        check = trinoid_closing_check(*(tuple(mono[:2, i]) for i in range(3)))
        hol = mono[2:]
        # the unitarizer varies with lam: one gauge per circle sample, all in one call
        try:
            g = unitarizing_gauge(hol)[:, None]
            plain_unit, dressed_unit = _unitarity(np.stack([hol, mul2(mul2(g, hol), inv2(g))]))
        except ValueError:
            (plain_unit,), dressed_unit = _unitarity(hol[None]), None
        payload = {
            "family": "trinoid",
            "admissibility": {
                "admissible": adm.admissible,
                "n": list(adm.n),
                "m": list(adm.m),
                "violated": adm.violated,
            },
            "monodromy": {
                "product_residual": check.product_residual,
                "pm_id_deviation": [check.mu1, check.mu2],
                "closes_q2": check.closes_q2,
                "closes_s3": check.closes_s3,
                "plain_unitarity_max": plain_unit,
                "dressed_unitarity_max": dressed_unit,
            },
            **_ode_record(counts),
        }
        _write_json(out_dir / "closing.json", cfg, payload)
        n_str = ", ".join(f"{x:.6f}" for x in adm.n)
        m_str = ", ".join(f"{x:.6f}" for x in adm.m)
        print(f"admissible={adm.admissible} n=({n_str}) m=({m_str})")
        print(f"monodromy product residual {check.product_residual:.3e}; "
              f"dressed unitarity {dressed_unit if dressed_unit is None else f'{dressed_unit:.3e}'}")
        ok = adm.admissible and check.product_residual <= cfg.tolerances.get("monodromy_product", 1e-6)
        return EXIT_OK if ok else EXIT_CHECKS_FAILED

    print(f"closing checks apply to equivariant/trinoid potentials, "
          f"not {cfg.pot.variant!r}", file=sys.stderr)
    return EXIT_USAGE


def cmd_family(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.sweep is None or cfg.sweep < 2:
        print("family needs 'sweep' >= 2 in the config", file=sys.stderr)
        return EXIT_USAGE
    from .frames import SurfaceMap, unit_lift
    from .verify import invariants_report, read_tables
    _grid_pole_check(cfg.pot, cfg.grid)
    nodes = cfg.grid.nodes()
    h = cfg.fd_step
    s = cfg.sweep
    lams = [np.exp(1j * np.pi * k / s) for k in range(s)]
    smap = SurfaceMap(cfg.pot, window=cfg.truncation_n, ode=cfg.ode)

    # member k is read off the lam0 = 1 table rotated by lam_k; raw lift phase:
    # the lam0^-2 rotation is a statement about the un-normalized alpha
    rows = read_tables(smap, nodes, h, lambda z, table: [invariants_report(unit_lift(pair), z, h, phase=1.0 + 0.0j)
                                                         for pair in table.rotated(lams)])
    failures = [{"index": i, "z_re": z.real, "z_im": z.imag, "error": str(row)}
                for i, (z, row) in enumerate(zip(nodes, rows)) if isinstance(row, Exception)]
    valid = [row for row in rows if not isinstance(row, Exception)]
    if not valid:
        print(f"no grid node produced a family report: {failures[0]['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    per_lambda = []
    for k, lam in enumerate(lams):
        u_dev = max(abs(row[k].u - row[0].u) for row in valid)
        a_dev = max(abs(row[k].alpha - lam**-2 * row[0].alpha) for row in valid)
        per_lambda.append({
            "lambda_re": float(lam.real),
            "lambda_im": float(lam.imag),
            "max_u_dev": u_dev,
            "max_alpha_dev": a_dev,
        })
    max_u = max(e["max_u_dev"] for e in per_lambda)
    max_a = max(e["max_alpha_dev"] for e in per_lambda)
    _write_json(out_dir / "family.json", cfg, {
        "lambdas": [[float(l.real), float(l.imag)] for l in lams],
        "n_failed": len(failures),
        "failures": failures,
        "per_lambda": per_lambda,
        "max_u_dev": max_u,
        "max_alpha_dev": max_a,
    })
    print(f"family sweep ({s} samples, {len(failures)} of {len(nodes)} nodes failed): max |u - u(1)| = {max_u:.3e}, "
          f"max |alpha - lam^-2 alpha(1)| = {max_a:.3e}")
    bound = cfg.tolerances.get("family", None)
    if bound is not None and (max_u > bound or max_a > bound):
        return EXIT_CHECKS_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mlq",
        description="Minimal Lagrangian surfaces in the complex quadric via loop groups.",
    )
    parser.add_argument("command", choices=("generate", "verify", "closing", "family"))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, default=None, help="ignored: every command runs serially")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out) if args.out else cfg.output_dir

    dispatch = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "closing": cmd_closing,
        "family": cmd_family,
    }
    # bound lazily: an except tuple is evaluated only when an exception reaches it, so a clean run never loads it
    from . import iwasawa
    try:
        return dispatch[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, iwasawa.ConvergenceError, iwasawa.FactorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    status = main()
    # every output file is written and closed: spare the finalizer collecting the whole module graph
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
