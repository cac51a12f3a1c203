"""Cold start: SciPy loads only when a dense routine runs.

Each test starts fresh interpreters, since the suite's own process has
SciPy loaded long before any test runs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mvinterp.cli import main
from mvinterp.nodes import assemble_generic
from mvinterp.vandermonde import build_vandermonde, cond_two, genericity_check, invert, lu_solve

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_SCRIPT = """
import contextlib, importlib, io, json, sys
from pathlib import Path
import mvinterp
from mvinterp import cli
for path in sorted(Path(mvinterp.__file__).parent.glob("*.py")):
    if path.stem != "__init__":
        importlib.import_module(f"mvinterp.{path.stem}")
nodefile, csvfile = sys.argv[1:]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["nodes", "--m", "3", "--n", "3", "-o", nodefile]))
    codes.append(cli.main(["solve", "runge", "--m", "3", "--n", "3"]))
    codes.append(cli.main(["fit", csvfile, "x", "y"]))
before = sorted(name for name in sys.modules if "scipy" in name)
verify = io.StringIO()
with contextlib.redirect_stdout(verify):
    codes.append(cli.main(["verify", nodefile]))
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy.linalg" in sys.modules, "verify": verify.getvalue()}))
"""

# the dense entry points on the (4, 4) set, in a rotated order per process,
# so that each function that imports SciPy makes the first dense call once
DENSE_SCRIPT = """
import hashlib, sys
import numpy as np
from mvinterp.nodes import assemble_generic
from mvinterp.vandermonde import build_vandermonde, cond_two, genericity_check, invert, lu_solve
nodes = assemble_generic(4, 4)[0]
v = build_vandermonde(nodes, 4, 4)
rhs = np.linspace(-1.0, 1.0, len(nodes))
calls = {
    "lu_solve": lambda: lu_solve(v, rhs),
    "invert": lambda: invert(v),
    "structured": lambda: genericity_check(nodes, 4, 4),
    "dense": lambda: genericity_check(nodes.points, 4, 4),
    "cond_two": lambda: cond_two(v),
}
names = list(calls)
start = names.index(sys.argv[1])
assert "scipy.linalg" not in sys.modules
for name in names[start:] + names[:start]:
    out = calls[name]()
    print(name, hashlib.sha256(out.tobytes() if isinstance(out, np.ndarray) else repr(out).encode()).hexdigest())
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], env=env, stdout=subprocess.PIPE, text=True,
    )


def finish(process) -> str:
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    return out


def test_nodes_solve_and_fit_never_load_scipy(tmp_path, capsys):
    nodefile, csvfile = tmp_path / "n.nodes", tmp_path / "fit.csv"
    csvfile.write_text("x,y\n1,2\n2,8\n3,18\n4,32\n")
    report = json.loads(finish(run_fresh(CLI_SCRIPT, str(nodefile), str(csvfile))))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["before"] == []
    assert report["after"] is True
    assert main(["verify", str(nodefile)]) == 0
    assert report["verify"] == capsys.readouterr().out


def digest(out) -> str:
    return hashlib.sha256(out.tobytes() if isinstance(out, np.ndarray) else repr(out).encode()).hexdigest()


def test_first_dense_call_in_a_fresh_process_gives_the_same_bits():
    starts = ("lu_solve", "structured", "dense", "cond_two")
    processes = [run_fresh(DENSE_SCRIPT, start) for start in starts]
    nodes = assemble_generic(4, 4)[0]
    v = build_vandermonde(nodes, 4, 4)
    rhs = np.linspace(-1.0, 1.0, len(nodes))
    outputs = {
        "lu_solve": lu_solve(v, rhs),
        "invert": invert(v),
        "structured": genericity_check(nodes, 4, 4),
        "dense": genericity_check(nodes.points, 4, 4),
        "cond_two": cond_two(v),
    }
    assert (outputs["structured"]["route"], outputs["dense"]["route"]) == ("structured", "dense")
    expected = {name: digest(out) for name, out in outputs.items()}
    for start, process in zip(starts, processes):
        lines = finish(process).splitlines()
        assert lines[0].split()[0] == start
        assert dict(line.split() for line in lines) == expected
