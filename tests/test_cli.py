import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlq
from mlq import holonomy
from mlq.cli import (
    EXIT_CHECKS_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    _histogram,
    _n_jobs,
    _write_obj,
    load_config,
    main,
)
from mlq.frames import GridSpec

BASE = {
    "schema": 1,
    "potential": {"variant": "sphere"},
    "grid": {"re_min": -0.4, "re_max": 0.4, "n_re": 3,
             "im_min": -0.4, "im_max": 0.4, "n_im": 3},
    "truncation_N": 10,
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_full(tmp_path):
    path = write_cfg(
        tmp_path,
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0},
        lambda0={"re": 0.0, "im": 1.0},
        ode={"tolerance": 1e-9},
        fd_step=5e-4,
        tolerances={"quadric": 1e-8},
        output_dir="results",
    )
    cfg = load_config(path)
    assert cfg.spec.variant == "equivariant"
    assert cfg.lambda0 == 1j
    assert cfg.ode.tolerance == 1e-9
    assert cfg.fd_step == 5e-4
    assert cfg.tolerances == {"quadric": 1e-8}
    assert str(cfg.output_dir) == "results"
    assert cfg.truncation_n == 10
    assert cfg.sweep is None


def test_load_config_sweep_wins_over_lambda0(tmp_path):
    cfg = load_config(write_cfg(tmp_path, sweep=6))
    assert cfg.sweep == 6 and cfg.lambda0 == 1.0 + 0.0j


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="schema"):
        load_config(write_cfg(tmp_path, schema=99))
    with pytest.raises(ConfigError, match="potential"):
        load_config(write_cfg(tmp_path, potential={"variant": "dodecahedron"}))
    with pytest.raises(ConfigError, match="grid"):
        load_config(write_cfg(tmp_path, grid={"re_min": 0.0}))
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(write_cfg(tmp_path, grid={**BASE["grid"], "n_re": 1}))
    with pytest.raises(ConfigError, match="lambda0"):
        load_config(write_cfg(tmp_path, lambda0={"re": 1.2, "im": 0.0}))
    with pytest.raises(ConfigError, match="tolerances"):
        load_config(write_cfg(tmp_path, tolerances=[1, 2]))
    with pytest.raises(ConfigError, match="unknown tolerance name.*sinh_gordn"):
        load_config(write_cfg(tmp_path, tolerances={"sinh_gordn": 1e-3}))
    # the fixed-step integrator and its options are gone
    removed_ode = write_cfg(tmp_path, ode={"tolerance": 1e-9, "method": "rk4", "step": 1e-3})
    with pytest.raises(ConfigError, match="bad ode options"):
        load_config(removed_ode)
    assert main(["generate", "--config", removed_ode, "--out", str(tmp_path / "g")]) == EXIT_USAGE


#: potentials that parse but that make_potential rejects
BAD_POTENTIALS = {
    "radial_c_on_the_circle": {"variant": "radial", "c": [1, 0], "k": 1},
    "custom_3x3": {"variant": "custom", "base_point": [0, 0], "terms": [
        {"lam_power": -1, "matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}]},
    "custom_not_trace_free": {"variant": "custom", "base_point": [0, 0], "terms": [
        {"lam_power": 0, "matrix": [[1, 0], [0, 0]]}]},
}


@pytest.mark.parametrize("name", sorted(BAD_POTENTIALS))
def test_bad_potential_parameters_are_config_errors(tmp_path, name):
    path = write_cfg(tmp_path, potential=BAD_POTENTIALS[name])
    with pytest.raises(ConfigError, match="bad potential"):
        load_config(path)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "g")]) == EXIT_USAGE
    assert not (tmp_path / "g").exists()


def test_jobs_resolution(monkeypatch):
    monkeypatch.delenv("MLQ_JOBS", raising=False)
    assert _n_jobs(2) == 2
    assert _n_jobs(None) >= 1
    monkeypatch.setenv("MLQ_JOBS", "3")
    assert _n_jobs(8) == 3
    monkeypatch.setenv("MLQ_JOBS", "abc")
    with pytest.raises(ConfigError, match="MLQ_JOBS"):
        _n_jobs(None)


def test_histogram_bins():
    h = _histogram([1e-5, 2e-5, 0.0, float("nan"), 1e-20])
    assert sum(h["counts"]) == 3            # zero and nan dropped
    assert h["counts"][-5 + 16] == 2        # 1e-5 and 2e-5 land in [-5, -4)
    assert h["counts"][0] == 1              # underflow clamps into the lowest bin


def test_write_obj_skips_invalid_vertices(tmp_path):
    grid = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    whole = tmp_path / "a.obj"
    _write_obj(whole, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)], grid)
    text = whole.read_text().splitlines()
    assert sum(l.startswith("v ") for l in text) == 4
    assert sum(l.startswith("f ") for l in text) == 2
    holed = tmp_path / "b.obj"
    _write_obj(holed, [(0, 0, 1), None, (1, 0, 0), (1, 1, 0)], grid)
    text = holed.read_text().splitlines()
    assert text[1] == "v 0 0 0"
    assert sum(l.startswith("f ") for l in text) == 0


def test_generate_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    csv = (out / "surface.csv").read_text().splitlines()
    assert len(csv) == 1 + 9
    header = csv[0].split(",")
    assert header[:2] == ["z_re", "z_im"]
    assert len(header) == 24
    assert not any("nan" in line for line in csv[1:])
    for obj in ("factor1.obj", "factor2.obj"):
        lines = (out / obj).read_text().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 9
        assert sum(l.startswith("f ") for l in lines) == 8
    meta = json.loads((out / "meta.json").read_text())
    assert meta["schema"] == 1
    assert meta["n_nodes"] == 9 and meta["n_failed"] == 0
    assert meta["max_iwasawa_residual"] < 1e-8
    assert meta["config"]["potential"] == {"variant": "sphere"}


def test_generate_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["generate", "--config", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_OK
        outs.append(out)
    for fname in ("surface.csv", "factor1.obj", "factor2.obj", "meta.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_verify_gates(tmp_path):
    grid = {"re_min": -0.3, "re_max": 0.3, "n_re": 2,
            "im_min": -0.3, "im_max": 0.3, "n_im": 2}
    ok_cfg = write_cfg(tmp_path, "ok.json", grid=grid,
                       tolerances={"quadric": 1e-8, "conformal": 1e-4, "lagrangian": 1e-4})
    out = tmp_path / "v1"
    assert main(["verify", "--config", ok_cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert set(report["checks"]) == {"quadric", "conformal", "lagrangian"}
    assert report["max_residuals"]["quadric"] < 1e-12
    assert all(n["valid"] for n in report["nodes"])

    bad_cfg = write_cfg(tmp_path, "bad.json", grid=grid, tolerances={"quadric": 1e-30})
    out2 = tmp_path / "v2"
    assert main(["verify", "--config", bad_cfg, "--out", str(out2), "--jobs", "1"]) == EXIT_CHECKS_FAILED
    report = json.loads((out2 / "report.json").read_text())
    assert report["pass"] is False

    # every sphere node sits at C = 1/2, so none evaluates the gauss term:
    # the configured gate fails instead of passing on an empty set
    skip_cfg = write_cfg(tmp_path, "skip.json", grid=grid, tolerances={"gauss": 1.0})
    out3 = tmp_path / "v3"
    assert main(["verify", "--config", skip_cfg, "--out", str(out3), "--jobs", "1"]) == EXIT_CHECKS_FAILED
    report = json.loads((out3 / "report.json").read_text())
    assert report["n_gauss_skipped"] == 4
    assert report["checks"]["gauss"] == {"max": None, "bound": 1.0, "evaluated": 0, "pass": False}
    assert "gauss" not in report["max_residuals"]


def test_verify_keeps_skipped_gauss_terms_out_of_the_gate(tmp_path):
    # z = 0 is a complex point of the radial surface (C = 1/2): its truncated
    # gauss value (2.5e-1) stays in the node record but must not gate
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "radial", "c": [0.5, 0.0], "k": 1},
        grid={"re_min": -0.4, "re_max": 0.4, "n_re": 3,
              "im_min": -0.4, "im_max": 0.4, "n_im": 3},
        truncation_N=16,
        ode={"tolerance": 1e-12},
        tolerances={"gauss": 1e-3},
    )
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["n_gauss_skipped"] == 1
    centre = report["nodes"][4]
    assert centre["gauss_skipped"] and centre["residuals"]["gauss"] > 1e-1
    assert report["checks"]["gauss"]["evaluated"] == 8
    assert report["max_residuals"]["gauss"] <= 1e-3
    assert sum(report["histograms"]["gauss"]["counts"]) == 8


def test_usage_errors(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    # closing is only defined for families with something to close
    sphere_cfg = write_cfg(tmp_path, "sphere.json")
    assert main(["closing", "--config", sphere_cfg, "--out", str(tmp_path / "c")]) == EXIT_USAGE
    # family needs a sweep count
    assert main(["family", "--config", sphere_cfg, "--out", str(tmp_path / "f")]) == EXIT_USAGE
    # grid straddling a puncture is rejected before any integration
    tri_cfg = write_cfg(
        tmp_path, "tri.json",
        potential={"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0},
        grid={"re_min": -0.2, "re_max": 0.2, "n_re": 3, "im_min": -0.2, "im_max": 0.2, "n_im": 3},
        lambda0={"re": 0.0, "im": 1.0},
    )
    assert main(["generate", "--config", tri_cfg, "--out", str(tmp_path / "g")]) == EXIT_USAGE
    # a misspelt tolerance is a config error, not a silently dropped gate
    typo_cfg = write_cfg(tmp_path, "typo.json", tolerances={"sinh_gordn": 1e-3})
    assert main(["verify", "--config", typo_cfg, "--out", str(tmp_path / "v")]) == EXIT_USAGE


def test_closing_equivariant(tmp_path):
    cfg = write_cfg(
        tmp_path, "eq.json",
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0},
    )
    out = tmp_path / "closing"
    assert main(["closing", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    payload = json.loads((out / "closing.json").read_text())
    assert payload["closing"]["closes_q2"] is True
    assert payload["closing"]["mu1"] == pytest.approx(2.0, abs=1e-9)
    assert payload["deck_residual"] < 1e-6


def test_closing_trinoid(tmp_path):
    cfg = write_cfg(
        tmp_path, "tri.json",
        potential={"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0},
        lambda0={"re": 0.0, "im": 1.0},
    )
    out = tmp_path / "closing"
    assert main(["closing", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    payload = json.loads((out / "closing.json").read_text())
    assert payload["admissibility"]["admissible"] is True
    assert payload["monodromy"]["product_residual"] < 1e-6
    assert payload["monodromy"]["dressed_unitarity_max"] < 1e-6


def test_closing_trinoid_runs_one_transport_per_loop(tmp_path, monkeypatch):
    calls = []
    transport = holonomy.transport

    def counted(pot, path, y, lams, opts):
        calls.append(len(lams))
        return transport(pot, path, y, lams, opts)

    monkeypatch.setattr(holonomy, "transport", counted)
    cfg = write_cfg(
        tmp_path, "tri.json",
        potential={"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0},
    )
    assert main(["closing", "--config", cfg, "--out", str(tmp_path / "closing"), "--jobs", "1"]) == EXIT_OK
    # three generator loops, each carrying (lam0, -i lam0) and 8 circle samples
    assert calls == [10, 10, 10]


def test_family_sweep(tmp_path):
    cfg = write_cfg(
        tmp_path, "fam.json",
        potential={"variant": "torus"},
        grid={"re_min": -0.3, "re_max": 0.3, "n_re": 2,
              "im_min": -0.3, "im_max": 0.3, "n_im": 2},
        sweep=2,
    )
    out = tmp_path / "family"
    assert main(["family", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    payload = json.loads((out / "family.json").read_text())
    assert len(payload["per_lambda"]) == 2
    assert payload["max_u_dev"] < 1e-6
    assert payload["max_alpha_dev"] < 1e-4


def test_the_cli_imports_no_scipy():
    # scipy serves the profile oracle and the tests; the pipeline needs numpy only
    code = "import sys, mlq.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
