"""What a fresh interpreter loads: the package imports its search and
expression modules on first use, and each `wg` verb loads only what it runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordgraphs

PACKAGE_ROOT = Path(wordgraphs.__file__).resolve().parent.parent

# prints the package's modules loaded by `import wordgraphs`, then those
# that `main(argv)` adds, for argv given as JSON
LOADS = """
import contextlib, io, json, sys
import wordgraphs
loaded = lambda: {m for m in sys.modules if m.split(".")[0] == "wordgraphs"}
before = loaded()
from wordgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(before), sorted(loaded() - before)]))
"""

API = """
import json, sys
import wordgraphs
listed = set(wordgraphs.__all__) <= set(dir(wordgraphs))
names = {}
exec("from wordgraphs import *", names)
import wordgraphs.cliquewidth, wordgraphs.graphs, wordgraphs.representability
modules = [m for n, m in sys.modules.items() if n.startswith("wordgraphs.")]
# every module that binds a public name binds the one object star-import gave
strays = [
    n for n in wordgraphs.__all__
    if n not in names
    or not any(getattr(m, n, None) is names[n] for m in modules)
    or any(hasattr(m, n) and getattr(m, n) is not names[n] for m in modules)
]
try:
    wordgraphs.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "listed": listed,
    "strays": strays,
    "locality": type(wordgraphs.locality).__name__,
    "unknown": unknown,
}))
"""


def _fresh(code: str, *args: str):
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_api_under_lazy_loading():
    assert _fresh(API) == {
        "listed": True,
        "strays": [],
        "locality": "function",
        "unknown": "module 'wordgraphs' has no attribute 'no_such_name'",
    }


EAGER = ["wordgraphs", "wordgraphs.errors", "wordgraphs.locality", "wordgraphs.words"]
EDGE = '{"nodes": ["a", "b", "c"], "edges": [["a", "b"]]}'


@pytest.mark.parametrize(
    "argv, added",
    [
        (["locality", "abcab", "--json"], ["cli"]),
        (["check", "abcab", "--k", "2"], ["cli"]),
        (["graph", "abab"], ["cli", "graphs"]),
        (["gen", "cycle", "5"], ["cli", "graphs"]),
        (["threshold", "--graph", "{graph}"], ["cli", "graphs"]),
        (["uniformize", "abaaa", "--k", "1", "--sigma", "b,a"], ["cli", "graphs", "representability"]),
        (["cliques", "ab|cd|e"], ["cli", "graphs", "representability"]),
        (["decide", "--graph", "{graph}", "--class", "L", "--k", "1"], ["cli", "graphs", "representability"]),
        (["speed", "--class", "R", "--k", "2", "--n", "3"], ["cli", "graphs", "representability"]),
        (["cwd", "build", "abab", "--sigma", "a,b", "--k", "2"], ["cli", "cliquewidth", "graphs"]),
        (["cwd", "verify", "abab", "--sigma", "a,b", "--k", "2"], ["cli", "cliquewidth", "graphs"]),
        (["cwd", "eval", "{expression}"], ["cli", "cliquewidth", "graphs"]),
    ],
    ids=[
        "locality", "check", "graph", "gen", "threshold", "uniformize", "cliques", "decide", "speed",
        "cwd-build", "cwd-verify", "cwd-eval",
    ],
)
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, argv, added):
    graph = tmp_path / "graph.json"
    graph.write_text(EDGE, encoding="utf-8")
    expression = tmp_path / "expression.txt"
    expression.write_text('(create two "a")', encoding="utf-8")
    argv = [a.format(graph=graph, expression=expression) for a in argv]
    code, before, after = _fresh(LOADS, json.dumps(argv))
    assert code == 0
    assert before == EAGER
    assert after == [f"wordgraphs.{m}" for m in added]
