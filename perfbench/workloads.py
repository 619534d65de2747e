"""The three benchmark workloads: seeded CLI configs and checks on their outputs.

Each workload is one ``mlq`` subcommand on one config.  ``config(seed)``
builds the config; seed 0 (the default) is the reference input, any other
seed moves the input by a seeded amount that keeps it inside the region where
the pipeline and its oracle are valid.  ``check(out_dir, cfg, oracle)``
reads what the command wrote and returns one :class:`Outcome`.

A unit is a grid node (generate, verify) or a monodromy matrix (closing).
A unit fails if it is invalid or its output misses the workload's stated
bound.  ``margin_digits`` is the minimum over all checked values of
log10(bound / measured), with measured values floored at 1e-16.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: seed used when --seed is not given; it selects the reference inputs
DEFAULT_SEED = 0

MEASURE_FLOOR = 1e-16

#: facts a workload's check may report; 0 where the workload has none
FACTS = ("verify.gauss_skipped.count", "verify.gauss_skipped.residual",
         "verify.gauss_unskipped.residual")


@dataclass
class Outcome:
    attempted: int
    failed: int
    margin_digits: float
    errors: list[str] = field(default_factory=list)
    #: deterministic facts about the output that are not pass/fail
    facts: dict[str, float] = field(default_factory=dict)


class _Margin:
    """Running minimum of log10(bound / measured) over finite measurements."""

    def __init__(self) -> None:
        self.value = math.inf

    def ok(self, measured: float, bound: float) -> bool:
        if not math.isfinite(measured):
            return False
        self.value = min(self.value, math.log10(bound / max(measured, MEASURE_FLOOR)))
        return measured <= bound

    def result(self) -> float:
        return self.value if math.isfinite(self.value) else 0.0


def _grid_nodes(g: dict) -> list[complex]:
    """Row-major nodes (imaginary axis outer), as ``GridSpec.nodes`` orders them."""

    def axis(lo: float, hi: float, n: int) -> list[float]:
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    return [complex(x, y) for y in axis(g["im_min"], g["im_max"], g["n_im"])
            for x in axis(g["re_min"], g["re_max"], g["n_re"])]


# ---------------------------------------------------------------------------


class GenerateEquivariant:
    """``mlq generate`` on the equivariant family a=0.75, b=0.25, c=0: a 15x15
    grid on [0.3, 1.5] x [-0.6, 0.6], N=16, default ODE options."""

    name = "generate-equivariant"
    command = "generate"

    A, B = 0.75, 0.25
    QUADRIC_BOUND = 1e-9
    NORM_BOUND = 1e-9
    #: first S2 factor against the closed-form frame: the c08 gate
    ORACLE_BOUND = 1e-6

    def config(self, seed: int) -> dict:
        # the seed shifts the whole grid by up to half a grid step per axis;
        # re_min stays >= 0.257, well clear of the pole at 0
        step = 1.2 / 14
        dx = dy = 0.0
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            dx = (rng.random() - 0.5) * step
            dy = (rng.random() - 0.5) * step
        return {
            "schema": 1,
            "potential": {"variant": "equivariant", "a": self.A, "b": self.B, "c": 0.0},
            "grid": {"re_min": 0.3 + dx, "re_max": 1.5 + dx, "n_re": 15,
                     "im_min": -0.6 + dy, "im_max": 0.6 + dy, "n_im": 15},
            "lambda0": {"re": 1.0, "im": 0.0},
            "truncation_N": 16,
        }

    def oracle(self, cfg: dict) -> list[tuple[float, float, float]]:
        """Closed-form first S2 factor (Pauli vector of F(1) s3 F(1)^*) per node."""
        import numpy as np
        from mlq.closedform import equivariant_frame, equivariant_profile

        nodes = _grid_nodes(cfg["grid"])
        x_max = max(abs(math.log(abs(z))) for z in nodes) + 0.05
        profile = equivariant_profile(self.A, self.B, x_max=x_max)
        s3 = np.diag([1.0, -1.0])
        out = []
        for z in nodes:
            f = equivariant_frame(self.A, self.B, profile, cmath.log(z), 1.0)
            phi = f @ s3 @ f.conj().T
            out.append((phi[0, 1].real, -phi[0, 1].imag, phi[0, 0].real))
        return out

    def check(self, out_dir: Path, cfg: dict, oracle) -> Outcome:
        nodes = _grid_nodes(cfg["grid"])
        res = Outcome(attempted=len(nodes), failed=len(nodes), margin_digits=0.0)
        try:
            with open(out_dir / "surface.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            res.errors.append(f"surface.csv: {exc}")
            return res
        if len(rows) != len(nodes):
            res.errors.append(f"surface.csv has {len(rows)} rows for {len(nodes)} nodes")
            return res
        margin = _Margin()
        failed = 0
        for row, z, want in zip(rows, nodes, oracle):
            vals = {k: float(v) for k, v in row.items()}
            q = [complex(vals[f"q2_{i}_re"], vals[f"q2_{i}_im"]) for i in range(4)]
            s2a = (vals["s2a_x"], vals["s2a_y"], vals["s2a_z"])
            where = abs(complex(vals["z_re"], vals["z_im"]) - z)
            quadric = abs(sum(v * v for v in q))
            norm = abs(math.sqrt(sum(abs(v) ** 2 for v in q)) - math.sqrt(2.0))
            oracle_dev = max(abs(a - b) for a, b in zip(s2a, want))
            good = where <= 1e-12
            good &= margin.ok(quadric, self.QUADRIC_BOUND)
            good &= margin.ok(norm, self.NORM_BOUND)
            good &= margin.ok(oracle_dev, self.ORACLE_BOUND)
            if not good:
                failed += 1
                res.errors.append(f"node {z}: quadric {quadric:.2e}, |v|-sqrt2 {norm:.2e}, "
                                  f"oracle {oracle_dev:.2e}, z offset {where:.1e}")
        res.failed = failed
        res.margin_digits = margin.result()
        return res


class VerifyRadial:
    """``mlq verify`` on the radial family c=0.5, k=1: a 3x3 grid on
    [-0.4, 0.4]^2 that includes z=0, ODE tol 1e-12, h=1e-3, N=16, gated on
    the acceptance tolerances."""

    name = "verify-radial"
    command = "verify"

    TOLERANCES = {"quadric": 1e-9, "conformal": 1e-4, "lagrangian": 1e-4,
                  "harmonic": 1e-4, "sinh_gordon": 1e-3}

    def config(self, seed: int) -> dict:
        # the seed rescales each axis by up to 10% about z = 0, which stays
        # the centre node: the skipped gauss term there must stay visible
        sx = sy = 0.4
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            sx = 0.4 * (1.0 + 0.2 * (rng.random() - 0.5))
            sy = 0.4 * (1.0 + 0.2 * (rng.random() - 0.5))
        return {
            "schema": 1,
            "potential": {"variant": "radial", "c": [0.5, 0.0], "k": 1},
            "grid": {"re_min": -sx, "re_max": sx, "n_re": 3,
                     "im_min": -sy, "im_max": sy, "n_im": 3},
            "truncation_N": 16,
            "ode": {"tolerance": 1e-12},
            "fd_step": 1e-3,
            "tolerances": dict(self.TOLERANCES),
        }

    def oracle(self, cfg: dict) -> None:
        return None

    def check(self, out_dir: Path, cfg: dict, oracle) -> Outcome:
        nodes = _grid_nodes(cfg["grid"])
        res = Outcome(attempted=len(nodes), failed=len(nodes), margin_digits=0.0)
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            res.errors.append(f"report.json: {exc}")
            return res
        reps = report.get("nodes", [])
        if len(reps) != len(nodes):
            res.errors.append(f"report.json has {len(reps)} nodes for {len(nodes)}")
            return res
        margin = _Margin()
        failed = 0
        skipped, other = [], []
        for rep, z in zip(reps, nodes):
            good = bool(rep.get("valid")) and abs(complex(rep["z_re"], rep["z_im"]) - z) <= 1e-12
            if good:
                for name, bound in cfg["tolerances"].items():
                    good &= margin.ok(float(rep["residuals"][name]), bound)
                (skipped if rep["gauss_skipped"] else other).append(rep["residuals"]["gauss"])
            if not good:
                failed += 1
                res.errors.append(f"node {z}: {rep.get('error') or rep.get('residuals')}")
        res.failed = failed
        res.margin_digits = margin.result()
        res.facts = {
            "verify.gauss_skipped.count": len(skipped),
            "verify.gauss_skipped.residual": max(skipped, default=0.0),
            "verify.gauss_unskipped.residual": max(other, default=0.0),
        }
        return res


class ClosingTrinoid:
    """``mlq closing`` on the trinoid lambda0=i, v=(1, 1, 1), ODE tol 1e-12:
    30 fixed-lambda monodromies on 64-gon loops plus the unitarizing gauge."""

    name = "closing-trinoid"
    command = "closing"

    BOUND = 1e-6
    #: monodromies per command: 3 generators at 2 spectral values + 8 circle samples
    UNITS_PRODUCT = 6
    UNITS_CIRCLE = 24

    def config(self, seed: int) -> dict:
        # the seed moves each weight by up to 5%, which keeps the weights
        # admissible and the monodromy unitarizable
        v = [1.0, 1.0, 1.0]
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            v = [1.0 + 0.1 * (rng.random() - 0.5) for _ in v]
        return {
            "schema": 1,
            "potential": {"variant": "trinoid", "lambda0": [0.0, 1.0],
                          "v0": v[0], "v1": v[1], "vinf": v[2]},
            # closing ignores the grid, but every config must carry one
            "grid": {"re_min": 0.0, "re_max": 1.0, "n_re": 2,
                     "im_min": 0.0, "im_max": 1.0, "n_im": 2},
            "ode": {"tolerance": 1e-12},
        }

    def oracle(self, cfg: dict) -> None:
        return None

    def check(self, out_dir: Path, cfg: dict, oracle) -> Outcome:
        total = self.UNITS_PRODUCT + self.UNITS_CIRCLE
        res = Outcome(attempted=total, failed=total, margin_digits=0.0)
        try:
            payload = json.loads((out_dir / "closing.json").read_text())
        except (OSError, ValueError) as exc:
            res.errors.append(f"closing.json: {exc}")
            return res
        if not payload["admissibility"]["admissible"]:
            res.errors.append(f"not admissible: {payload['admissibility']['violated']}")
            return res
        mono = payload["monodromy"]
        margin = _Margin()
        failed = 0
        product = mono["product_residual"]
        if not margin.ok(float("nan") if product is None else product, self.BOUND):
            failed += self.UNITS_PRODUCT
            res.errors.append(f"monodromy product residual {product}")
        dressed = mono["dressed_unitarity_max"]
        if not margin.ok(float("nan") if dressed is None else dressed, self.BOUND):
            failed += self.UNITS_CIRCLE
            res.errors.append(f"dressed unitarity {dressed}")
        res.failed = failed
        res.margin_digits = margin.result()
        return res


WORKLOADS = {w.name: w for w in (GenerateEquivariant(), VerifyRadial(), ClosingTrinoid())}
