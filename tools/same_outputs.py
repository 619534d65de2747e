"""Check that two source trees write the same outputs on a fixed list of configs.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Each config is written
once, then run as ``python -m mlq.cli COMMAND --config ... --out ...`` from
each tree's ``src/``, with BLAS and OpenMP pinned to one thread.  For every
config the two runs' exit codes, stdout (the output directory masked, since
``generate`` prints it) and every output file are compared byte for byte,
and one line is printed.  For each output file that differs, one more line
gives the largest absolute gap between its corresponding numbers (JSON
leaves, CSV cells by row and column, the words of any other text file) and
the first key that moved.  The exit code is 0 only when every config is
identical.  The benchmark's configs come from ``perfbench/workloads.py`` of
the checkout this script is in.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RADIAL = {"variant": "radial", "c": [0.5, 0.0], "k": 1}
EQUIVARIANT = {"variant": "equivariant", "a": 0.75, "b": 0.25, "c": 0.0}
TRINOID = {"variant": "trinoid", "lambda0": [0.0, 1.0], "v0": 1.0, "v1": 1.0, "vinf": 1.0}


def grid(re: tuple[float, float], im: tuple[float, float], n_re: int, n_im: int) -> dict:
    return {"re_min": re[0], "re_max": re[1], "n_re": n_re, "im_min": im[0], "im_max": im[1], "n_im": n_im}


def config(potential: dict, grid_: dict, **keys) -> dict:
    return {"schema": 1, "potential": potential, "grid": grid_, **keys}


def configs() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every compared run."""
    runs = [(f"{w.name} seed {seed}", w.command, w.config(seed)) for w in WORKLOADS.values() for seed in (0, 1)]
    radial8 = config(RADIAL, grid((-0.4, 0.4), (-0.4, 0.4), 8, 8), ode={"tolerance": 1e-12}, sweep=8)
    equivariant7 = config(EQUIVARIANT, grid((0.25, 1.4), (-0.5, 0.5), 7, 7), truncation_N=16, sweep=4)
    trinoid3 = config(TRINOID, grid((0.3, 0.7), (0.25, 0.65), 3, 3), lambda0={"re": 0.0, "im": 1.0})
    # 22 of the 42 nodes are read at the cap
    radial_capped = config(RADIAL, grid((-1.4, 1.4), (-1.4, 1.4), 7, 6), truncation_N=16, sweep=4)
    # the stencil of the node 1 + 0.0025i passes within EPS_POLE of the pole at 1: it fails its route check
    trinoid_route = config(TRINOID, grid((0.3, 1.0), (0.0025, 0.4025), 8, 5), lambda0={"re": 0.0, "im": 1.0},
                           ode={"tolerance": 1e-12}, sweep=4)
    return runs + [
        ("radial 60x60 generate", "generate", config(RADIAL, grid((-0.6, 0.6), (-0.6, 0.6), 60, 60))),
        ("radial 8x8 verify", "verify", radial8),
        ("radial 8x8 family sweep 8", "family", radial8),
        ("verify-radial grid family sweep 8", "family", {**WORKLOADS["verify-radial"].config(0), "sweep": 8}),
        ("trinoid 3x3 verify", "verify", trinoid3),
        ("trinoid 3x3 generate", "generate", trinoid3),
        ("equivariant closing", "closing", config(EQUIVARIANT, grid((0.3, 1.5), (-0.6, 0.6), 2, 2))),
        ("equivariant 7x7 verify", "verify", equivariant7),
        ("equivariant 7x7 family sweep 4", "family", equivariant7),
        ("radial window 16 7x6 verify", "verify", radial_capped),
        ("radial window 16 7x6 family sweep 4", "family", radial_capped),
        ("trinoid route-failed 8x5 verify", "verify", trinoid_route),
        ("trinoid route-failed 8x5 family sweep 4", "family", trinoid_route),
    ]


def leaves(value, key: str = ""):
    """(key, leaf) of every leaf of a parsed JSON value, in order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def cells(name: str, data: bytes) -> dict:
    """{key: value} of an output file: JSON leaves, CSV cells, or the words of any other text, by line."""
    text = data.decode(errors="replace")
    if name.endswith(".json"):
        return dict(leaves(json.loads(text)))
    if name.endswith(".csv"):
        head, *rows = csv.reader(io.StringIO(text))
        return {f"row {r} {col}": cell for r, row in enumerate(rows, 1) for col, cell in zip(head, row)}
    lines = enumerate(text.splitlines(), 1)
    return {f"line {r} word {c}": w for r, line in lines for c, w in enumerate(line.split(), 1)}


def number(value) -> float | None:
    """value as a float, if it is a number (or a CSV cell or word holding one), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def gap(name: str, a: bytes | None, b: bytes | None) -> str:
    """The largest absolute gap between the corresponding numbers of a file's two runs, with its key, and the
    first key that moved; a file that one run did not write, or that does not parse, is reported as such."""
    if a is None or b is None:
        return f"{name}: written by one run only"
    try:
        ca, cb = cells(name, a), cells(name, b)
    except ValueError as exc:
        return f"{name}: differs and does not parse ({exc})"
    moved = [k for k in dict.fromkeys([*ca, *cb]) if ca.get(k) != cb.get(k)]
    gaps = {k: abs(x - y) for k in moved
            if (x := number(ca.get(k))) is not None and (y := number(cb.get(k))) is not None}
    largest = f"{max(gaps.values()):.3g} at {max(gaps, key=gaps.get)!r}" if gaps else "none"
    first = repr(moved[0]) if moved else "none (layout only)"
    return f"{name}: largest gap {largest}, first key moved {first}"


def run(tree: Path, command: str, cfg: Path, out: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, masked stdout and {relative path: bytes} of every output file of one run."""
    src = str(tree.resolve() / "src")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "mlq.cli", command, "--config", str(cfg), "--out", str(out)],
                          cwd=src, env=env, capture_output=True, text=True)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout.replace(str(out), "<out>"), files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    runs, differ = configs(), 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for k, (name, command, cfg) in enumerate(runs):
            path = Path(tmp) / f"config{k}.json"
            path.write_text(json.dumps(cfg))
            (rc_a, out_a, files_a), (rc_b, out_b, files_b) = (
                run(tree, command, path, Path(tmp) / label / str(k))
                for label, tree in (("parent", args.parent), ("change", args.change)))
            changed = [f for f in sorted(files_a.keys() | files_b.keys()) if files_a.get(f) != files_b.get(f)]
            diffs = changed + ["exit code"] * (rc_a != rc_b) + ["stdout"] * (out_a != out_b)
            differ += bool(diffs)
            state = f"DIFFERS in {', '.join(diffs)}" if diffs else "identical"
            print(f"{name}: {state} (exit {rc_a}, {len(files_a)} files)", flush=True)
            for f in changed:
                print(f"    {gap(f, files_a.get(f), files_b.get(f))}", flush=True)
    print(f"{differ} of {len(runs)} configs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
