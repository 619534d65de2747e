import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlq
import mlq.cli
from mlq import potentials
from mlq.frames import FramePointPair, FrameTable, GridSpec, SurfaceMap
from mlq.holonomy import DomainPath, OdeOptions
from mlq.iwasawa import _single, iwasawa, iwasawa_twisted, spectral_factor_plus
from mlq.verify import geometry_report, invariants_report


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
#: a frame table is read at (lam0, -i lam0), so no tolerance, section,
#: batch-size, winding or spectral-value knob may come back; ``rotated(mus)``
#: is no such knob: the split is unique under rotation of the circle, so the
#: rotations read the same table's modes at other points, with no new frame
#: or split; the reports read stencil tables, so none may take a surface again
SIGNATURES = [
    (SurfaceMap.__init__, ["self", "pot", "lambda0", "window", "ode"]),
    (SurfaceMap.samples, ["self", "nodes"]),
    (SurfaceMap.sample, ["self", "z"]),
    (SurfaceMap.frame_tables, ["self", "centres", "points"]),
    (FrameTable.pair, ["self"]),
    (FrameTable.rotated, ["self", "mus"]),
    (iwasawa, ["values"]),
    (iwasawa_twisted, ["values"]),
    (spectral_factor_plus, ["values"]),
    (_single, ["rows"]),
    (SurfaceMap._split_rows, ["self", "states"]),
    (invariants_report, ["vals", "z", "h", "phase", "table"]),
    (geometry_report, ["s2", "z", "h"]),
]


@pytest.mark.parametrize("fn, params", SIGNATURES, ids=[fn.__qualname__ for fn, _ in SIGNATURES])
def test_no_knob_comes_back(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_the_readme_quick_start_runs():
    # the README's Python quick start is executed as written
    readme = (Path(mlq.__file__).parents[2] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


#: the potential and the extra keys of a small config for each command, named
#: by the command and, after a "-", the case
COMMAND_CONFIGS = {
    "generate": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, {}),
    "verify": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, {}),
    "closing": ({"variant": "equivariant", "a": 0.75, "b": 0.25}, {}),
    "family": ({"variant": "torus"}, {"sweep": 2}),
    "family-sweep6": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, {"sweep": 6}),
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
    # command runs on that one; no command builds it again, and none builds
    # more than one SurfaceMap, family at a sweep whose members are not
    # samples of the lam0 = 1 table included
    built, maps = [], []
    make = potentials.make_potential

    def counted(spec):
        built.append(spec.variant)
        return make(spec)

    class CountedMap(SurfaceMap):
        def __init__(self, *args, **kwargs):
            maps.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(potentials, "make_potential", counted)
    monkeypatch.setattr(mlq.cli, "make_potential", counted)
    # the commands import SurfaceMap when they run, from mlq.frames
    monkeypatch.setattr(mlq.frames, "SurfaceMap", CountedMap)
    potential, extra = COMMAND_CONFIGS[command]
    path = write_config(tmp_path, potential, **extra)
    assert mlq.cli.main([command.split("-")[0], "--config", path, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert built == [potential["variant"]]
    assert len(maps) == 1


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


def test_the_set_up_probe_runs_no_pipeline_layer(tmp_path):
    # perfbench/setup_probe.py's path, import mlq.cli then load_config and
    # make_potential, leaves holonomy, frames, iwasawa, verify and closedform
    # unexecuted, and mlq.GridSpec resolves to the config reader's own
    # record without loading frames; in a fresh interpreter
    cfg = write_config(tmp_path, {"variant": "equivariant", "a": 0.75, "b": 0.25})
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    script = (
        "import json, sys, types\n"
        "import mlq, mlq.cli\n"
        f"mlq.cli.make_potential(mlq.cli.load_config({cfg!r}).spec)\n"
        "same = mlq.GridSpec is mlq.potentials.GridSpec\n"
        "unrun = sorted(n for n, m in sys.modules.items() if n.startswith('mlq.') and type(m) is not types.ModuleType)\n"
        "print(json.dumps([same, unrun]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [True, ["mlq.closedform", "mlq.frames", "mlq.holonomy", "mlq.iwasawa",
                                             "mlq.verify"]]


def test_the_set_up_probe_still_reads_the_spec(tmp_path):
    # perfbench/setup_probe.py times mlq.cli.load_config(path) and then
    # mlq.cli.make_potential(cfg.spec): both names stay in mlq.cli
    cfg = mlq.cli.load_config(write_config(tmp_path, {"variant": "equivariant", "a": 0.75, "b": 0.25}))
    pot = mlq.cli.make_potential(cfg.spec)
    assert pot == cfg.pot and pot.spec == cfg.spec


def test_the_layer_trace_finds_every_layer_after_importing_the_cli():
    # perfbench/layer_trace.install imports mlq.cli, then reads each of its
    # LAYERS from sys.modules and wraps what vars() of it holds: holonomy,
    # frames, iwasawa, verify and closedform are bound there unexecuted and
    # load on that read, and a layer imported before mlq.cli stays the one
    # object; in a fresh interpreter, with closedform or frames imported first
    root = Path(mlq.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    for first in ("closedform", "frames"):
        script = (
            "import json, sys\n"
            "from layer_trace import LAYERS\n"
            f"import mlq.{first}\n"
            f"before = sys.modules['mlq.{first}']\n"
            "import mlq.cli\n"
            "missing = [n for n in LAYERS if f'mlq.{n}' not in sys.modules]\n"
            "verify, frames = sys.modules['mlq.verify'], sys.modules['mlq.frames']\n"
            "holonomy = sys.modules['mlq.holonomy']\n"
            "print(json.dumps([missing, 'node_reports' in vars(verify), mlq.verify is verify,\n"
            "                  'SurfaceMap' in vars(frames), mlq.frames is frames,\n"
            "                  'transport' in vars(holonomy), mlq.holonomy is holonomy,\n"
            f"                  sys.modules['mlq.{first}'] is before]))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [[], True, True, True, True, True, True, True], first


def fresh_main(argv: list[str]) -> tuple:
    """mlq.cli.main(argv) in a fresh interpreter, so no other test's imports
    count: its exit code, the mlq modules that ``import mlq`` loaded, every
    module in sys.modules after the command, and the mlq modules there whose
    body never ran (``type`` tells a lazy module apart without loading it)."""
    env = {**os.environ, "PYTHONPATH": str(Path(mlq.__file__).parents[1])}
    script = (
        "import json, sys, types\n"
        "import mlq\n"
        "bare = sorted(m for m in sys.modules if m.startswith('mlq.'))\n"
        "import mlq.cli\n"
        f"code = mlq.cli.main({argv!r})\n"
        "unrun = sorted(n for n, m in sys.modules.items() if n.startswith('mlq.') and type(m) is not types.ModuleType)\n"
        "print(json.dumps([code, bare, sorted(sys.modules), unrun]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    return tuple(json.loads(run.stdout.splitlines()[-1]))


def test_generate_loads_only_what_it_runs(tmp_path):
    # importing mlq loads none of its modules (its names resolve on first
    # access), and generate, at any --jobs or none, starts no thread pool,
    # builds no rational weight, loads no dataclasses (its records generate
    # no code at import) and never runs the holonomy, verify or closedform
    # module that importing mlq.cli binds: an equivariant frame is exp(W A)
    cfg = write_config(tmp_path, {"variant": "equivariant", "a": 0.75, "b": 0.25})
    for jobs in (["--jobs", "1"], [], ["--jobs", "4"]):
        code, bare, loaded, unrun = fresh_main(["generate", "--config", cfg, "--out", str(tmp_path / "out"), *jobs])
        assert code == 0 and bare == [], jobs
        assert sorted({"concurrent.futures", "dataclasses", "numpy.polynomial"} & set(loaded)) == [], jobs
        assert {"mlq.verify", "mlq.closedform"} <= set(loaded), jobs
        assert unrun == ["mlq.closedform", "mlq.holonomy", "mlq.verify"], jobs


#: a command, the potential of its config and the layer modules it never runs
UNRUN_LAYERS = {
    "generate": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, ["mlq.closedform", "mlq.verify"]),
    "verify": ({"variant": "radial", "c": [0.5, 0.0], "k": 1}, ["mlq.closedform"]),
    "closing": ({"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0},
                ["mlq.frames", "mlq.iwasawa", "mlq.verify"]),
}


@pytest.mark.parametrize("command", sorted(UNRUN_LAYERS))
def test_a_command_runs_only_the_layers_it_calls(tmp_path, command):
    # a radial generate runs the integrator but neither verify nor
    # closedform, verify never runs closedform, and closing on a trinoid
    # never runs frames, the split or verify
    potential, unrun_layers = UNRUN_LAYERS[command]
    cfg = write_config(tmp_path, potential)
    code, _, loaded, unrun = fresh_main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert {"mlq.verify", "mlq.closedform"} <= set(loaded) and unrun == unrun_layers
