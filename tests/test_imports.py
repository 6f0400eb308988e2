"""What a fresh interpreter loads: the package imports its search and
expression modules on first use, each `wg` verb loads only what it runs,
and only the verbs that build stage traces load `dataclasses`."""

from __future__ import annotations

import hashlib
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


def _fresh(code: str, *args: str, flags: tuple[str, ...] = ()):
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
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


def test_public_names_are_pinned():
    # the 61 names, each listed once in the package; their sha1 over the
    # sorted names joined by newlines
    names = sorted(wordgraphs.__all__)
    assert len(names) == len(set(names)) == 61
    digest = hashlib.sha1("\n".join(names).encode()).hexdigest()
    assert digest == "32df682f34b6e44e2367f5d8e511c6ae4fd08dde"


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
        (["cwd", "build", "abab", "--sigma", "a,b", "--k", "2"], ["cli", "cliquewidth"]),
        (["cwd", "verify", "abab", "--sigma", "a,b", "--k", "2"], ["cli", "cliquewidth"]),
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


# runs main(argv) for argv given as JSON; prints its exit code, its output,
# and which of the heavy standard modules are loaded afterwards
HEAVY = """
import io, json, sys
from wordgraphs.cli import main
stdout, sys.stdout = sys.stdout, io.StringIO()
code = main(json.loads(sys.argv[1]))
text, sys.stdout = sys.stdout.getvalue(), stdout
print(json.dumps([code, text, sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("site", [True, False], ids=["site", "no-site"])
@pytest.mark.parametrize(
    "argv, text",
    [
        (["locality", "abcab", "--json"], '{"locality": 2, "witness": ["a", "b", "c"], "word": "abcab"}\n'),
        (["locality", "abcab", "--sigma", "b,a,c"], "2 (sigma: b,a,c)\n"),
        (["check", "abcab", "--k", "2"], "2-local: yes\n"),
    ],
    ids=["locality", "locality-sigma", "check-k"],
)
def test_locality_and_check_load_no_dataclasses(argv, text, site):
    # with site, a site-packages hook may import typing before the package does
    code, out, heavy = _fresh(HEAVY, json.dumps(argv), flags=() if site else ("-S",))
    assert (code, out) == (0, text)
    assert [m for m in heavy if site and m == "typing"] == heavy


def test_check_with_sigma_declares_stage_trace():
    argv = ["check", "abcab", "--k", "2", "--sigma", "b,a,c"]
    code, out, heavy = _fresh(HEAVY, json.dumps(argv), flags=("-S",))
    assert (code, out) == (
        0,
        "stage 1: mark 'b' -> 2 block(s): [2..2][5..5]\n"
        "stage 2: mark 'a' -> 2 block(s): [1..2][4..5]\n"
        "stage 3: mark 'c' -> 1 block(s): [1..5]\n"
        "2-local: yes (max block count 2)\n",
    )
    assert heavy == ["dataclasses", "inspect"]


# declares StageTrace through one of its entry points, then reads it through
# the others; unpickling a trace made elsewhere is one of those entry points
STAGE_TRACE = """
import json, pickle, sys, typing
import wordgraphs
loc = sys.modules["wordgraphs.locality"]  # the package attribute is the function
first = sys.argv[1]
before = "StageTrace" in vars(loc)
if first == "unpickle":
    got = type(pickle.loads(bytes.fromhex(sys.argv[2])))
elif first == "package":
    got = wordgraphs.StageTrace
elif first == "module":
    from wordgraphs.locality import StageTrace as got
elif first == "threads":
    import threading
    sys.setswitchinterval(1e-6)
    start, seen = threading.Barrier(8), []
    def declare():
        start.wait()
        seen.append(type(loc.simulate_marking("abcab", "bac")[0]))
    workers = [threading.Thread(target=declare) for _ in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers) and len(seen) == 8
    got = seen[0] if len(set(seen)) == 1 else None
else:
    got = type(loc.simulate_marking("abcab", "bac")[0])
from wordgraphs.locality import StageTrace
same = got is StageTrace is wordgraphs.StageTrace is type(loc.simulate_marking("ab", "ab")[0])
hints = typing.get_type_hints(loc.simulate_marking)["return"] == list[StageTrace]
print(json.dumps([before, same, hints, StageTrace.__module__, StageTrace.__qualname__]))
"""


@pytest.mark.parametrize("first", ["simulate", "package", "module", "unpickle", "threads"])
def test_stage_trace_is_one_type_whichever_use_declares_it(first):
    import pickle

    from wordgraphs import simulate_marking

    blob = pickle.dumps(simulate_marking("abcab", "bac")[0]).hex()
    assert _fresh(STAGE_TRACE, first, blob) == [False, True, True, "wordgraphs.locality", "StageTrace"]
