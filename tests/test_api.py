import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlq
import mlq.cli
from mlq import potentials
from mlq.frames import FramePointPair, FrameTable, GridSpec, SurfaceMap, _split_rows
from mlq.holonomy import DomainPath, OdeOptions
from mlq.iwasawa import _single, iwasawa, spectral_factor_plus


def test_every_exported_name_resolves():
    missing = [name for name in mlq.__all__ if not hasattr(mlq, name)]
    assert missing == []
    assert len(set(mlq.__all__)) == len(mlq.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mlq import *", namespace)
    assert set(mlq.__all__) <= set(namespace)



#: public names kept without a caller in src/: closed-form oracles and entry points
NO_SRC_CALLER = {
    "sphere_frame",
    "torus_frame",
    "equivariant_profile",
    "quat_matrix",
    "projective_distance",
    "build_surface",
    "geometry_report",
    "node_report",
}

#: public methods kept without a read in src/: an entry point and an oracle
NO_SRC_READ = {"SurfaceMap.sample", "EquivariantProfile.energy_residual"}

#: classes of src/ that may define ``__call__``: none, since nothing in src/ calls an instance
CALLABLE_CLASSES: set[str] = set()

#: record fields kept without a read in src/: report outputs for callers
UNREAD_FIELDS = {"InvariantReport.phi_inv", "CUReport.K", "IwasawaResult.B"}


def _is_constant(name: str) -> bool:
    return name.lstrip("_").isupper()


def test_no_test_only_code():
    # every public module-level function or class of src/mlq is read somewhere
    # in src/: a Name load or a from-import; attributes, keywords and the
    # package's re-exports do not count.  Private module-level functions,
    # private methods and UPPER_CASE module constants must be read in src/
    # too, where an attribute read (self._helper, module.CONSTANT) counts;
    # so must every public method of a class, as Class.method, and every
    # record field, as Class.field, where an attribute read of its name
    # anywhere in src/ counts; a record is a NamedTuple or a class with
    # __slots__, and its fields are its annotated names.  A class may define
    # __call__ only if listed.
    src = Path(mlq.__file__).parent
    defined, read_in_src, used, attrs, methods = set(), set(), set(), set(), set()
    fields, calls = set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                (read_in_src if node.name.startswith("_") else defined).add(node.name)
            if isinstance(node, ast.ClassDef):
                read_in_src.update(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                    and not item.name.endswith("__")
                )
                methods.update(
                    (node.name, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
                calls.update(node.name for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == "__call__")
                if "NamedTuple" in map(ast.unparse, node.bases) or any(
                        isinstance(item, ast.Assign) and "__slots__" in map(ast.unparse, item.targets)
                        for item in node.body):
                    fields.update((node.name, item.target.id) for item in node.body
                                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            read_in_src.update(t.id for t in targets if isinstance(t, ast.Name) and _is_constant(t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    assert sorted(defined - used - NO_SRC_CALLER) == []
    assert sorted(read_in_src - used - attrs) == []
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in attrs) == sorted(NO_SRC_READ)
    assert sorted(calls) == sorted(CALLABLE_CLASSES)
    assert fields
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in attrs) == sorted(UNREAD_FIELDS)


#: parameters of the split and of the SurfaceMap entry points: the split rule
#: is one constant (``iwasawa.SPLIT_TOL``), the section starts at P's degree,
#: a stack is split whole, winding reaches only the deck check's ``lift``, and
#: a frame table is read at a sample, so no tolerance, section, batch-size,
#: winding or spectral-value knob may come back
SIGNATURES = [
    (SurfaceMap.__init__, ["self", "pot", "lambda0", "window", "ode"]),
    (SurfaceMap.samples, ["self", "nodes"]),
    (SurfaceMap.sample, ["self", "z"]),
    (SurfaceMap.frame_pairs, ["self", "z", "points"]),
    (FrameTable.pair, ["self", "j"]),
    (iwasawa, ["values"]),
    (spectral_factor_plus, ["values"]),
    (_single, ["rows"]),
    (_split_rows, ["states"]),
]


@pytest.mark.parametrize("fn, params", SIGNATURES, ids=[fn.__qualname__ for fn, _ in SIGNATURES])
def test_no_knob_comes_back(fn, params):
    assert list(inspect.signature(fn).parameters) == params


#: the potential and the extra keys of a small config for each command
COMMAND_CONFIGS = {
    "generate": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, {}),
    "verify": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, {}),
    "closing": ({"variant": "equivariant", "a": 0.75, "b": 0.25}, {}),
    "family": ({"variant": "torus"}, {"sweep": 2}),
}


def write_config(tmp_path, potential, **extra) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "potential": potential, "truncation_N": 8,
        "grid": {"re_min": 0.2, "re_max": 0.3, "n_re": 2, "im_min": -0.1, "im_max": 0.1, "n_im": 2},
        **extra,
    }))
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_a_run_builds_its_potential_once(tmp_path, monkeypatch, command):
    # load_config builds the potential to validate the config, and every
    # command runs on that one; no command builds it again
    built = []
    make = potentials.make_potential

    def counted(spec):
        built.append(spec.variant)
        return make(spec)

    monkeypatch.setattr(potentials, "make_potential", counted)
    monkeypatch.setattr(mlq.cli, "make_potential", counted)
    potential, extra = COMMAND_CONFIGS[command]
    path = write_config(tmp_path, potential, **extra)
    assert mlq.cli.main([command, "--config", path, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert built == [potential["variant"]]


def test_frozen_records_stay_frozen_and_compare_by_value():
    # the records that validate are slotted classes: no attribute can be set,
    # replaced or deleted after __init__, and they compare and hash by value;
    # a potential's xi terms take no part in its equality
    grid = GridSpec(0.0, 1.0, 2, 0.0, 1.0, 3)
    records = [(grid, "n_re"), (OdeOptions(), "tolerance"), (DomainPath([0.0, 1.0]), "closed"),
               (potentials.make_potential(potentials.sphere_spec()), "spec"),
               (FramePointPair(np.eye(2), np.eye(2)), "F1")]
    for record, name in records:
        assert not hasattr(record, "__dict__")
        for change in (lambda: setattr(record, name, None), lambda: delattr(record, name),
                       lambda: setattr(record, "extra", None)):
            with pytest.raises(AttributeError):
                change()
    assert grid == GridSpec(0.0, 1.0, 2, 0.0, 1.0, 3) != GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2)
    assert hash(grid) == hash(GridSpec(0.0, 1.0, 2, 0.0, 1.0, 3)) and repr(grid) == (
        "GridSpec(re_min=0.0, re_max=1.0, n_re=2, im_min=0.0, im_max=1.0, n_im=3)")
    pot = potentials.make_potential(potentials.equivariant_spec(0.75, 0.25))
    assert pot == potentials.Potential(pot.spec, pot.singular_points, pot.base_point, ())
    assert pot != potentials.Potential(pot.spec, pot.singular_points, 2.0, pot.terms)
    assert potentials.sphere_spec() == potentials.PotentialSpec("sphere", {})
    with pytest.raises(TypeError):
        potentials.sphere_spec().params["a"] = 1.0


def test_the_set_up_probe_still_reads_the_spec(tmp_path):
    # perfbench/setup_probe.py times mlq.cli.load_config(path) and then
    # mlq.cli.make_potential(cfg.spec): both names stay in mlq.cli
    cfg = mlq.cli.load_config(write_config(tmp_path, {"variant": "equivariant", "a": 0.75, "b": 0.25}))
    pot = mlq.cli.make_potential(cfg.spec)
    assert pot == cfg.pot and pot.spec == cfg.spec


def test_generate_loads_only_what_it_runs(tmp_path):
    # importing mlq loads none of its modules (its names resolve on first
    # access), and generate, at any --jobs or none, starts no thread pool,
    # builds no rational weight and loads no dataclasses (its records
    # generate no code at import); in a fresh interpreter, so no other
    # test's imports count
    cfg = write_config(tmp_path, {"variant": "equivariant", "a": 0.75, "b": 0.25})
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    for jobs in (["--jobs", "1"], [], ["--jobs", "4"]):
        argv = ["generate", "--config", cfg, "--out", str(tmp_path / "out"), *jobs]
        script = (
            "import json, sys\n"
            "import mlq\n"
            "bare = sorted(m for m in sys.modules if m.startswith('mlq.'))\n"
            "import mlq.cli\n"
            f"code = mlq.cli.main({argv!r})\n"
            "print(json.dumps([code, bare, sorted(sys.modules)]))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        code, bare, loaded = json.loads(run.stdout.splitlines()[-1])
        assert code == 0 and bare == [], jobs
        assert sorted({"concurrent.futures", "dataclasses", "numpy.polynomial"} & set(loaded)) == [], jobs
