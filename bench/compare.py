"""Compare the per-op answer digests of two benchmark result files.

    python3 bench/compare.py bench/results/A.json bench/results/B.json

Ops are matched by index; runs of one workload and seed generate the same
op at the same index. Prints the ops whose digests differ where both sides
succeeded, then the ops that failed on either side. A fix that turns a
failing op into a success adds a digest and changes none. When both files
come from traced runs, also prints every `calls` count that differs.

Exits 1 when a digest or a calls count differs, else 0.
"""

from __future__ import annotations

import json
import sys


def _outcome(record: dict) -> str:
    if record["digest"]:
        return "ok"
    if record["error"]:
        return f"raised {record['error']}"
    if record["wrong"]:
        return f"wrong answer ({record['wrong']})"
    return f"exit {record['code']}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    left, right = (json.load(open(path, encoding="utf-8")) for path in argv)
    if (left["workload"], left["seed"]) != (right["workload"], right["seed"]):
        sys.exit("error: the files come from different workloads or seeds")
    ops = list(zip(left["ops"], right["ops"]))
    differ = [a["op"] for a, b in ops if a["digest"] and b["digest"] and a["digest"] != b["digest"]]
    failed = [(a, b) for a, b in ops if not (a["digest"] and b["digest"])]
    print(f"{len(ops)} ops compared ({len(left['ops'])} left, {len(right['ops'])} right)")
    print(f"digests differ: {len(differ)} {differ}")
    print(f"failed on either side: {len(failed)}")
    for a, b in failed:
        print(f"  op {a['op']} ({a['verb']}): left {_outcome(a)}, right {_outcome(b)}")
    calls_differ = []
    if left["trace"] and right["trace"]:
        for name, metric in left["metrics"].items():
            if name.endswith(".calls") and metric != right["metrics"].get(name):
                calls_differ.append(name)
                print(f"calls differ: {name} {metric['value']} vs {right['metrics'][name]['value']}")
        print(f"calls counts differ: {len(calls_differ)}")
    return 1 if differ or calls_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
