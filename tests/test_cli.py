import gc
import json
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlq
from mlq import cli, frames, holonomy
from mlq.cli import (
    EXIT_CHECKS_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _CSV_HEADER,
    ConfigError,
    _histogram,
    _write_csv,
    _write_obj,
    load_config,
    main,
)
from mlq.frames import NODE_CHUNK, GridSpec, SurfaceMap, SurfaceSample
from mlq.iwasawa import SPLIT_TOL
from mlq.potentials import make_potential, sphere_spec

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
    with pytest.raises(ConfigError, match="tolerances.sinh_gordn is not a key of tolerances"):
        load_config(write_cfg(tmp_path, tolerances={"sinh_gordn": 1e-3}))
    # the fixed-step integrator and its options are gone
    removed_ode = write_cfg(tmp_path, ode={"tolerance": 1e-9, "method": "rk4", "step": 1e-3})
    with pytest.raises(ConfigError, match="ode.method"):
        load_config(removed_ode)
    assert main(["generate", "--config", removed_ode, "--out", str(tmp_path / "g")]) == EXIT_USAGE


#: malformed values, each a config error (exit 2) and not a crash or a run
#: whose every node fails; a key names the value its error must name
BAD_VALUES = {
    "lambda0_as_a_pair": ("lambda0", {"lambda0": [0.0, 1.0]}),
    "lambda0_re_not_a_number": ("lambda0.re", {"lambda0": {"re": "one"}}),
    "sweep_not_a_number": ("sweep", {"sweep": "many"}),
    "truncation_N_not_a_number": ("truncation_N", {"truncation_N": "x"}),
    "truncation_N_negative": ("truncation_N", {"truncation_N": -4}),
    "truncation_N_zero": ("truncation_N", {"truncation_N": 0}),
    "fd_step_not_a_number": ("fd_step", {"fd_step": "h"}),
    "fd_step_zero": ("fd_step", {"fd_step": 0}),
    "tolerance_not_a_number": ("tolerances.quadric", {"tolerances": {"quadric": "tight"}}),
    "output_dir_not_a_path": ("output_dir", {"output_dir": 7}),
    "truncation_N_not_integral": ("truncation_N", {"truncation_N": 10.7}),
    "truncation_N_a_bool": ("truncation_N", {"truncation_N": True}),
    "sweep_not_integral": ("sweep", {"sweep": 2.5}),
    "sweep_a_bool": ("sweep", {"sweep": True}),
    "grid_n_re_not_integral": ("grid.n_re", {"grid": {**BASE["grid"], "n_re": 3.5}}),
    "grid_n_im_a_bool": ("grid.n_im", {"grid": {**BASE["grid"], "n_im": True}}),
    # lambda0 is read and checked wherever it is given, next to a sweep too
    "lambda0_off_the_circle_next_to_a_sweep": ("lambda0", {"sweep": 4, "lambda0": {"re": 3.0, "im": 0.0}}),
    "lambda0_re_not_a_number_next_to_a_sweep": ("lambda0.re", {"sweep": 4, "lambda0": {"re": "one"}}),
    "lambda0_not_finite": ("lambda0", {"lambda0": {"re": float("nan"), "im": 0.0}}),
    "lambda0_overflowing": ("lambda0", {"lambda0": {"re": 1.7e308, "im": 1.7e308}}),
    # every value of the potential object is read as the rest of the config is
    "equivariant_a_missing": ("potential.a", {"potential": {"variant": "equivariant", "b": 0.25}}),
    "custom_term_matrix_missing": ("potential.terms.0.matrix", {"potential": {
        "variant": "custom", "base_point": [0, 0], "terms": [{"lam_power": -1}]}}),
    "trinoid_vinf_missing": ("potential.vinf", {"potential": {"variant": "trinoid", "lambda0": [0, 1],
                                                              "v0": 1.0, "v1": 1.0}}),
    "equivariant_a_bool": ("potential.a", {"potential": {"variant": "equivariant", "a": True, "b": 0.25}}),
    "radial_k_not_integral": ("potential.k", {"potential": {"variant": "radial", "c": [0.5, 0], "k": 1.5}}),
    "radial_k_a_bool": ("potential.k", {"potential": {"variant": "radial", "c": [0.5, 0], "k": True}}),
    "radial_c_three_parts": ("potential.c", {"potential": {"variant": "radial", "c": [0.5, 0, 9], "k": 1}}),
    "radial_c_one_part": ("potential.c", {"potential": {"variant": "radial", "c": [0.5], "k": 1}}),
    "radial_c_overflowing": ("potential", {"potential": {"variant": "radial", "c": [1.7e308, 1.7e308], "k": 1}}),
    "custom_num_a_string": ("potential.terms.0.num", {"potential": {
        "variant": "custom", "base_point": [0, 0], "terms": [{"lam_power": -1, "matrix": [[0, 1], [0, 0]],
                                                             "num": "12"}]}}),
    "custom_lam_power_not_integral": ("potential.terms.0.lam_power", {"potential": {
        "variant": "custom", "base_point": [0, 0], "terms": [{"lam_power": -1.5, "matrix": [[0, 1], [0, 0]]}]}}),
    # an ode that is not an object, and a key that an object does not take
    "ode_a_list": ("ode", {"ode": []}),
    "ode_null": ("ode", {"ode": None}),
    "lambda0_unknown_key": ("lambda0.imag", {"lambda0": {"re": 1.0, "imag": 0.5}}),
    "grid_unknown_key": ("grid.n_rex", {"grid": {**BASE["grid"], "n_rex": 4}}),
    "equivariant_unknown_key": ("potential.cc", {"potential": {"variant": "equivariant", "a": 0.75, "b": 0.25,
                                                               "cc": 0.5}}),
    # a top-level key the config does not take, and a tolerance name no command reads
    "truncation_N_lower_case": ("truncation_n", {"truncation_n": 4}),
    "fd_step_misspelt": ("fd_stp", {"fd_stp": 0.5}),
    "tolerance_unknown_name": ("tolerances.sinh_gordn", {"tolerances": {"sinh_gordn": 1e-3}}),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_malformed_values_are_config_errors(tmp_path, name):
    key, overrides = BAD_VALUES[name]
    path = write_cfg(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "g")]) == EXIT_USAGE
    assert not (tmp_path / "g").exists()


RADIAL = {"potential": {"variant": "radial", "c": [0.5, 0.0], "k": 1}}
NAN, INF = float("nan"), float("inf")

#: numbers that are not finite, each a config error (exit 2) before any node
#: runs: json reads NaN, Infinity and 1e999 (written as the string "1e999"
#: here and unquoted in the file), and floats read "nan" and "inf"; a key
#: names the value its error must name
NON_FINITE = {
    "ode_tolerance_nan": ("ode.tolerance", {"ode": {"tolerance": NAN}}),
    "radial_c_nan": ("potential.c.0", {"potential": {"variant": "radial", "c": [NAN, 0.0], "k": 1}}),
    "grid_bound_nan": ("grid.re_min", {"grid": {**BASE["grid"], "re_min": NAN}}),
    "grid_bound_infinity": ("grid.im_max", {"grid": {**BASE["grid"], "im_max": INF}}),
    "grid_bound_overflow": ("grid.re_max", {"grid": {**BASE["grid"], "re_max": "1e999"}}),
    "grid_bound_nan_string": ("grid.im_min", {"grid": {**BASE["grid"], "im_min": "nan"}}),
    "fd_step_infinity": ("fd_step", {"fd_step": INF}),
    "fd_step_inf_string": ("fd_step", {"fd_step": "inf"}),
    "tolerance_infinity": ("tolerances.conformal", {"tolerances": {"conformal": INF}}),
    "equivariant_a_nan_string": ("potential.a", {"potential": {"variant": "equivariant", "a": "nan", "b": 0.25}}),
    "trinoid_v0_inf_string": ("potential.v0", {"potential": {"variant": "trinoid", "lambda0": [0, 1], "v0": "inf",
                                                             "v1": 1.0, "vinf": 1.0}}),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, name):
    key, overrides = NON_FINITE[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **RADIAL, **overrides}).replace('"1e999"', "1e999"))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "v").exists()


def test_integral_values_are_read_as_ints(tmp_path):
    # an integral float or a numeric string is its number; only a fraction or a bool is an error
    cfg = load_config(write_cfg(tmp_path, truncation_N="12", sweep=4.0, ode={"tolerance": "1e-10"},
                                grid={**BASE["grid"], "n_re": "3", "n_im": 4.0}))
    assert (cfg.truncation_n, cfg.sweep, cfg.grid.n_re, cfg.grid.n_im) == (12, 4, 3, 4)
    assert all(type(v) is int for v in (cfg.truncation_n, cfg.sweep, cfg.grid.n_re, cfg.grid.n_im))
    assert cfg.ode.tolerance == 1e-10


#: a valid config of each family, with every optional object and key given
VALID_CONFIGS = [
    {**BASE, "potential": potential, "lambda0": {"re": 0.0, "im": 1.0}, "sweep": 4, "ode": {"tolerance": 1e-9},
     "fd_step": 1e-3, "tolerances": {"quadric": 1e-8}, "output_dir": "out"}
    for potential in (
        {"variant": "sphere"},
        {"variant": "torus"},
        {"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.1},
        {"variant": "radial", "c": [0.3, 0.4], "k": 3},
        {"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 2.0, "vinf": 3.0},
        {"variant": "custom", "base_point": [0.0, 0.0], "poles": [[-1.0, 0.0]], "terms": [
            {"lam_power": -1, "matrix": [[0, 1], [0, 0]], "num": [1.0], "den": [1.0, 1.0]},
            {"lam_power": 0, "matrix": [[0.5, 0], [0, [-0.5, 0]]]}]},
    )
]

#: JSON values of every type: None, bools, strings, fractions, non-finite and
#: overflowing floats, lists of 0-3 numbers and objects
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "12", "1e-3", "nan"]),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()), st.sampled_from([NAN, INF, -INF, 1.7e308]),
    st.lists(st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False), max_size=3),
    st.dictionaries(st.sampled_from(["re", "im", "a", "variant"]), st.integers(-2, 2), max_size=2),
)


def _paths(node, path=()):
    """The path of every value under node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_value_in_a_config_reads_or_is_a_config_error(tmp_path_factory, data):
    # one value of a valid config replaced by any JSON value: load_config returns or names it, never crashes
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(VALID_CONFIGS))))
    *parents, key = data.draw(st.sampled_from(list(_paths(cfg))))
    node = cfg
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(JSON_VALUES)
    path = tmp_path_factory.getbasetemp() / "any_value.json"
    path.write_text(json.dumps(cfg))
    try:
        load_config(path)
    except ConfigError:
        pass


#: potentials that parse but that make_potential rejects
BAD_POTENTIALS = {
    "radial_c_on_the_circle": {"variant": "radial", "c": [1, 0], "k": 1},
    "custom_3x3": {"variant": "custom", "base_point": [0, 0], "terms": [
        {"lam_power": -1, "matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}]},
    "custom_not_trace_free": {"variant": "custom", "base_point": [0, 0], "terms": [
        {"lam_power": 0, "matrix": [[1, 0], [0, 0]]}]},
    "custom_empty_numerator": {"variant": "custom", "base_point": [0, 0], "terms": [
        {"lam_power": -1, "matrix": [[0, 1], [0, 0]], "num": []}]},
}


@pytest.mark.parametrize("name", sorted(BAD_POTENTIALS))
def test_bad_potential_parameters_are_config_errors(tmp_path, name):
    path = write_cfg(tmp_path, potential=BAD_POTENTIALS[name])
    with pytest.raises(ConfigError, match="bad potential"):
        load_config(path)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "g")]) == EXIT_USAGE
    assert not (tmp_path / "g").exists()


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


def _cell(x) -> str:
    return "%.17g" % float(x)


def test_writers_match_per_cell_formatting(tmp_path):
    # one format per row writes each cell as the per-cell "%.17g" % float(x) did
    grid = GridSpec(-0.4, 0.4, 3, -0.3, 0.3, 2)
    smap = SurfaceMap(make_potential(sphere_spec()), 1.0, window=10)
    samples = smap.samples(grid.nodes())
    samples[1] = SurfaceSample(z=samples[1].z, valid=False, error="failed")
    assert sum(s.valid for s in samples) == 5
    _write_csv(tmp_path / "surface.csv", samples)
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    expected = []
    for s in samples:
        cells = [_cell(s.z.real), _cell(s.z.imag)]
        if s.valid:
            cells += [_cell(x) for v in s.q2_hom for x in (v.real, v.imag)]
            cells += [_cell(x) for part in (*s.s3_pair, *s.s2_pair) for x in part]
        else:
            cells += ["nan"] * 22
        expected.append(",".join(cells))
    assert lines == [",".join(_CSV_HEADER)] + expected
    verts = [s.s2_pair[0] if s.valid else None for s in samples]
    verts[2] = np.array([-0.0, 1e-300, np.pi])
    _write_obj(tmp_path / "factor1.obj", verts, grid)
    obj = (tmp_path / "factor1.obj").read_text().splitlines()
    assert obj[: len(verts)] == [
        "v 0 0 0" if v is None else f"v {_cell(v[0])} {_cell(v[1])} {_cell(v[2])}" for v in verts
    ]
    assert obj[2] == "v -0 1e-300 3.1415926535897931"


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
    assert meta["max_unitarity_error"] < 1e-8
    # the sphere's frames are read in closed form: nothing is integrated
    assert meta["ode_steps"] == meta["ode_rhs_calls"] == meta["ode_det_drift"] == 0
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


def test_generate_is_independent_of_jobs(tmp_path, monkeypatch):
    # 72 nodes are three chunks, one sweep each; --jobs is ignored, so every
    # node's sweep, and the step counts in meta.json, are the same for any --jobs
    sweeps = []
    transport = frames.transport

    def counted(pot, paths, y, lams, opts, counts):
        sweeps.append(len(paths))
        return transport(pot, paths, y, lams, opts, counts)

    monkeypatch.setattr(frames, "transport", counted)
    # the grid misses the base point 0, so every node rides in its chunk's sweep
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "radial", "c": 0.5, "k": 1},
        grid={"re_min": 0.1, "re_max": 0.9, "n_re": 9, "im_min": -0.5, "im_max": 0.5, "n_im": 8},
        truncation_N=8,
    )
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["generate", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
        outs.append(out)
    for fname in ("surface.csv", "factor1.obj", "factor2.obj", "meta.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
    assert sorted(sweeps) == [8, 8, 32, 32, 32, 32]  # one sweep per chunk
    meta = json.loads((outs[0] / "meta.json").read_text())
    assert meta["n_nodes"] == 72 and meta["n_failed"] == 0
    assert 0 < meta["ode_steps"] < meta["ode_rhs_calls"]
    assert 0.0 < meta["ode_det_drift"] < 1e-10
    # 8 is both the start window and the cap: no node is read again
    assert meta["window_counts"] == {"8": 72}


def test_verify_is_independent_of_jobs(tmp_path):
    # the nodes at 0.3 +- 0.1i are read at the cap, those at 1.2 +- 0.1i at
    # the start window; --jobs is ignored, so report.json, with its windows,
    # is the same for any --jobs
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0},
        grid={"re_min": 0.3, "re_max": 1.2, "n_re": 2, "im_min": -0.1, "im_max": 0.1, "n_im": 2},
        truncation_N=16,
        tolerances={"quadric": 1e-9},
    )
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    assert [n["window"] for n in report["nodes"]] == [16, 8, 16, 8]
    assert report["window_counts"] == {"16": 2, "8": 2}


def test_verify_writes_one_ode_record_for_any_jobs(tmp_path):
    # report.json records the ODE work of every chunk's sweeps as totals and
    # a maximum, and --jobs is ignored, so it is byte-identical for any --jobs
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "radial", "c": 0.5, "k": 1},
        grid={"re_min": 0.2, "re_max": 0.4, "n_re": 2, "im_min": -0.1, "im_max": 0.1, "n_im": 2},
        truncation_N=8,
        tolerances={"quadric": 1e-9},
    )
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    # the chunk of 4 nodes runs three one-segment sweeps, one of its anchors
    # and one per two stencils (24 of at most NODE_CHUNK rows): 2 evaluations
    # each before the first step, then 12 a step
    assert report["ode_rhs_calls"] == 3 * 2 + 12 * report["ode_steps"]
    assert 0.0 < report["ode_det_drift"] < 1e-10


def test_verify_and_family_are_independent_of_jobs_over_two_chunks(tmp_path, monkeypatch):
    # 36 nodes are two chunks, 32 and 4; --jobs is ignored, so each node's
    # anchor sweep and stencil sweep, and report.json and family.json, are
    # the same for any --jobs
    sweeps = []
    transport = frames.transport

    def counted(pot, paths, y, lams, opts, counts):
        sweeps.append(len(paths))
        return transport(pot, paths, y, lams, opts, counts)

    monkeypatch.setattr(frames, "transport", counted)
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "radial", "c": 0.5, "k": 1},
        grid={"re_min": -0.4, "re_max": 0.4, "n_re": 6, "im_min": -0.4, "im_max": 0.4, "n_im": 6},
        truncation_N=16, sweep=2, tolerances={"quadric": 1e-9},
    )
    for command, name in (("verify", "report.json"), ("family", "family.json")):
        outs = []
        for jobs in ("1", "2"):
            sweeps.clear()
            out = tmp_path / f"{command}{jobs}"
            assert main([command, "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
            outs.append(out)
            # every node is read at the start window: one anchor sweep per
            # chunk, then one sweep per two stencils (24 rows)
            assert sorted(sweeps) == [4] + [24] * 18 + [NODE_CHUNK]
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), command
    report = json.loads((tmp_path / "verify1" / "report.json").read_text())
    assert len(report["nodes"]) == 36 > NODE_CHUNK and report["n_failed"] == 0
    assert report["window_counts"] == {"8": 36}
    assert json.loads((tmp_path / "family1" / "family.json").read_text())["n_failed"] == 0


def test_generate_and_verify_record_the_same_edge_mass(tmp_path):
    # both commands split a chunk's anchors in one pass, so they read the same
    # edge mass of P at every node; the record holds its maximum and its
    # log10 histogram, and verify's nodes hold their own
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0},
        grid={"re_min": 0.3, "re_max": 1.2, "n_re": 4, "im_min": -0.1, "im_max": 0.1, "n_im": 2},
        truncation_N=16,
    )
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "g"), "--jobs", "1"]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "1"]) == EXIT_OK
    meta = json.loads((tmp_path / "g" / "meta.json").read_text())
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    masses = [n["edge_mass"] for n in report["nodes"]]
    assert meta["max_edge_mass"] == report["max_edge_mass"] == max(masses)
    assert 0.0 < max(masses) <= frames.EDGE_TOL
    assert meta["edge_mass_histogram"] == report["edge_mass_histogram"]
    hist = report["edge_mass_histogram"]
    assert hist["log10_bin_edges"] == list(range(-16, 1)) and sum(hist["counts"]) == sum(m > 0 for m in masses)


def test_generate_and_verify_record_the_split_residual(tmp_path):
    # every accepted split's residual, relative to max_j ||P_j||^2 as SPLIT_TOL
    # reads it: generate records its nodes' splits, verify each node's largest
    # over its stencil, which includes the node's own split
    cfg = write_cfg(tmp_path, potential={"variant": "radial", "c": [0.5, 0.0], "k": 1})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "g"), "--jobs", "1"]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "1"]) == EXIT_OK
    meta = json.loads((tmp_path / "g" / "meta.json").read_text())
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    resids = [n["split_residual"] for n in report["nodes"]]
    assert report["max_split_residual"] == max(resids) <= SPLIT_TOL
    assert 0.0 < meta["max_split_residual"] <= report["max_split_residual"]
    # a zero residual (P = I at the base point z = 0) has no log10 bin
    hist = report["split_residual_histogram"]
    assert hist["log10_bin_edges"] == list(range(-16, 1)) and sum(hist["counts"]) == sum(r > 0 for r in resids) > 0
    assert 0 < sum(meta["split_residual_histogram"]["counts"]) <= meta["n_nodes"]


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


def test_generate_and_verify_read_the_same_nodes_near_the_pole(tmp_path):
    # at z = 0.05, 0.03 from the pole, F is unitary to ~4e-11 and the factor
    # residual's floor is ~2e-11 absolute: every command splits by the one
    # rule relative to ||P||^2, so generate and verify read the same nodes
    cfg = write_cfg(
        tmp_path,
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0},
        grid={"re_min": 0.03, "re_max": 0.09, "n_re": 4,
              "im_min": -0.03, "im_max": 0.03, "n_im": 3},
        truncation_N=16,
    )
    gen, ver = tmp_path / "g", tmp_path / "v"
    assert main(["generate", "--config", cfg, "--out", str(gen), "--jobs", "1"]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(ver), "--jobs", "1"]) == EXIT_OK
    meta = json.loads((gen / "meta.json").read_text())
    report = json.loads((ver / "report.json").read_text())
    assert meta["n_nodes"] == len(report["nodes"]) == 12
    assert meta["n_failed"] == report["n_failed"] == 0
    assert 0.05 in [n["z_re"] for n in report["nodes"]]


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
    # every DOP853 step makes 12 right-hand-side calls, and the one sweep 2 more
    assert payload["ode_steps"] > 0
    assert payload["ode_rhs_calls"] == 2 + 12 * payload["ode_steps"]
    assert 0.0 < payload["ode_det_drift"] < 1e-10


def test_closing_trinoid_runs_one_transport_for_its_three_loops(tmp_path, monkeypatch):
    calls = []
    transport = holonomy.transport

    def counted(pot, path, y, lams, opts, counts):
        calls.append((len(path), len(lams)))
        return transport(pot, path, y, lams, opts, counts)

    monkeypatch.setattr(holonomy, "transport", counted)
    cfg = write_cfg(
        tmp_path, "tri.json",
        potential={"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0},
    )
    outs = [tmp_path / "closing", tmp_path / "closing2"]
    for out in outs:
        assert main(["closing", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    # per run, the three generator loops ride in one sweep, each carrying
    # (lam0, -i lam0) and 8 circle samples
    assert calls == [(3, 10), (3, 10)]
    assert (outs[0] / "closing.json").read_bytes() == (outs[1] / "closing.json").read_bytes()


#: the verify-radial grid of perfbench: radial (0.5, 1) on [-0.4, 0.4]^2, N = 16
VERIFY_RADIAL = {
    "potential": {"variant": "radial", "c": [0.5, 0.0], "k": 1},
    "grid": {"re_min": -0.4, "re_max": 0.4, "n_re": 3, "im_min": -0.4, "im_max": 0.4, "n_im": 3},
    "truncation_N": 16, "ode": {"tolerance": 1e-12},
}

#: a family config and its sweep: the torus at sweep 2 reads both members
#: off one map, radial sweep 6 reads six members off d = 6/gcd(6, 16) = 3 maps
FAMILY_SWEEPS = {
    "torus": {"potential": {"variant": "torus"}, "sweep": 2,
              "grid": {"re_min": -0.3, "re_max": 0.3, "n_re": 2, "im_min": -0.3, "im_max": 0.3, "n_im": 2}},
    "radial-6": {**VERIFY_RADIAL, "sweep": 6},
}


@pytest.mark.parametrize("name", sorted(FAMILY_SWEEPS))
def test_family_sweep(tmp_path, name):
    cfg = write_cfg(tmp_path, "fam.json", **FAMILY_SWEEPS[name])
    sweep = FAMILY_SWEEPS[name]["sweep"]
    out = tmp_path / "family"
    assert main(["family", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    # the chunks run on threads; each is independent of the others
    assert main(["family", "--config", cfg, "--out", str(tmp_path / "family2"), "--jobs", "2"]) == EXIT_OK
    assert (tmp_path / "family2" / "family.json").read_bytes() == (out / "family.json").read_bytes()
    payload = json.loads((out / "family.json").read_text())
    assert len(payload["per_lambda"]) == sweep and payload["n_failed"] == 0
    assert payload["max_u_dev"] < 1e-6
    assert payload["max_alpha_dev"] < 1e-4


def test_family_at_sweep_8_transports_as_verify_does(tmp_path, monkeypatch):
    # at sweep 8 every member is a sample of member 0's table (N = 8 or 16),
    # so family transports each stencil once, as verify does
    calls = []
    transport = frames.transport

    def counted(*args):
        calls.append(len(args[1]))
        return transport(*args)

    monkeypatch.setattr(frames, "transport", counted)
    cfg = write_cfg(tmp_path, "fam.json", **VERIFY_RADIAL, sweep=8)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "1"]) == EXIT_OK
    verify_calls, calls[:] = list(calls), []
    assert main(["family", "--config", cfg, "--out", str(tmp_path / "f"), "--jobs", "1"]) == EXIT_OK
    assert calls == verify_calls and len(calls) > 0


def test_family_keeps_going_past_a_failed_node(tmp_path):
    # the node at 0.0015 is too near the pole for the split at N = 8 (P is not
    # positive definite there): it fails alone, in family as in verify, and
    # the deviations are taken over the other three nodes
    cfg = write_cfg(
        tmp_path, "fam.json", truncation_N=8, sweep=2,
        potential={"variant": "equivariant", "a": 0.75, "b": 0.25},
        grid={"re_min": 0.0015, "re_max": 0.3, "n_re": 2, "im_min": 0.0, "im_max": 0.2, "n_im": 2},
    )
    assert main(["family", "--config", cfg, "--out", str(tmp_path / "f"), "--jobs", "1"]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "1"]) == EXIT_OK
    family = json.loads((tmp_path / "f" / "family.json").read_text())
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    error = "loop is not positive definite at sample 0 of 32"
    assert family["n_failed"] == report["n_failed"] == 1
    assert [(f["index"], f["z_re"], f["z_im"]) for f in family["failures"]] == [(0, 0.0015, 0.0)]
    assert family["failures"][0]["error"].startswith(error) and report["nodes"][0]["error"].startswith(error)
    assert 0 < family["max_u_dev"] < 1e-4 and 0 < family["max_alpha_dev"] < 1e-3


#: potential, grid and error of configs whose frames are not finite: the
#: weight 1e308 (z + z^2) is inf at the base point 1, so the integrator's
#: first right-hand side is NaN, and the torus frame exp(W A) overflows at re 800
NOT_FINITE = {
    "overflowing_weight": (
        {"variant": "custom", "base_point": [1.0, 0.0], "terms": [
            {"lam_power": -1, "matrix": [[0, 1], [0, 0]]},
            {"lam_power": -1, "matrix": [[0, 0], [1, 0]], "num": [0, 1e308, 1e308]}]},
        {"re_min": 0.5, "re_max": 0.6, "n_re": 2, "im_min": 0.0, "im_max": 0.1, "n_im": 2},
        "adaptive integrator failed near z = ",
    ),
    "torus_far_out": (
        {"variant": "torus"},
        {"re_min": 800.0, "re_max": 801.0, "n_re": 2, "im_min": 0.0, "im_max": 1.0, "n_im": 2},
        "loop is not finite at sample ",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_FINITE))
def test_frames_that_are_not_finite_fail_their_nodes_promptly(tmp_path, name):
    # a NaN step size kept the integrator looping, and a NaN loop passed the
    # split's precheck and doubled its section to the limit: the runs did not
    # end, or took 15 s; in a subprocess, where numpy only warns on overflow
    potential, grid, error = NOT_FINITE[name]
    cfg = write_cfg(tmp_path, potential=potential, grid=grid)
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "mlq.cli", "generate", "--config", cfg,
                          "--out", str(tmp_path / "g"), "--jobs", "1"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - start < 5.0
    assert run.returncode == EXIT_NUMERICAL, run.stderr
    meta = json.loads((tmp_path / "g" / "meta.json").read_text())
    assert meta["n_failed"] == meta["n_nodes"] == 4
    assert all(f["error"].startswith(error) and "not finite" in f["error"] for f in meta["failures"])


def test_the_cli_imports_no_scipy():
    # scipy serves the profile oracle and the tests; the pipeline needs numpy only
    code = "import sys, mlq.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_the_process_entry_runs_main_and_freezes_the_heap_at_exit(tmp_path, monkeypatch):
    # `python -m mlq.cli` and the installed `mlq` script both run cli.run():
    # main() in a subprocess writes what it writes in process, and its exit
    # code comes through the freeze
    cfg = write_cfg(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    sub = tmp_path / "sub"
    done = subprocess.run([sys.executable, "-m", "mlq.cli", "generate", "--config", cfg, "--out", str(sub),
                           "--jobs", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == f"wrote 9 nodes to {sub} (0 failed)\n"
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "in"), "--jobs", "1"]) == EXIT_OK
    for fname in ("surface.csv", "factor1.obj", "factor2.obj", "meta.json"):
        assert (sub / fname).read_bytes() == (tmp_path / "in" / fname).read_bytes(), fname
    # main() leaves the collector as it found it, so a process may call it many times
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    missing = subprocess.run([sys.executable, "-m", "mlq.cli", "generate", "--config", str(tmp_path / "no.json")],
                             capture_output=True, text=True, env=env, timeout=60)
    assert missing.returncode == EXIT_USAGE and missing.stderr.startswith("config error: cannot read config")
    pyproject = Path(mlq.__file__).parents[2] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"]["mlq"] == "mlq.cli:run"
    # run() freezes after the command returns, then exits with its status
    order = []
    monkeypatch.setattr(cli, "main", lambda: order.append("main") or EXIT_CHECKS_FAILED)
    monkeypatch.setattr(gc, "freeze", lambda: order.append("freeze"))
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == EXIT_CHECKS_FAILED and order == ["main", "freeze"]
