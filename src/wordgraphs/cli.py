"""Command-line front end. Exit codes: 0 success, 1 negative answer,
2 usage or input errors, 3 search budget exceeded, 4 internal error."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .errors import BudgetExceededError
from .locality import (
    LETTER_BUDGET_DEFAULT,
    TWO,
    is_k_local,
    locality,
    max_block_count,
    simulate_marking,
    _check_k,
)
from .words import graph_of_word

TYPE_CHECKING = False  # type checkers read True; `typing` stays off the `wg locality` path
if TYPE_CHECKING:
    from typing import Any


def _env_budget(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _resolve(flag: int | None, env: str, fallback: int) -> int:
    if flag is None:
        value, source = _env_budget(env, fallback), env
    else:
        # every budget flag is named after its variable: WG_BUDGET_LEN is --budget-len
        value, source = flag, "--" + env[len("WG_"):].lower().replace("_", "-")
    if value < 0:
        raise ValueError(f"{source} must be at least 0, got {value}")
    return value


def _word(args: argparse.Namespace) -> str | tuple[str, ...]:
    if args.tokens:
        return tuple(args.word.split())
    return args.word


def _sigma(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(","))
    if any(not part for part in items):
        raise ValueError(f"bad marking sequence {text!r}; use comma-separated letters")
    return items


def _parts(spec: str, tokens: bool) -> list[list[str]]:
    parts = []
    for chunk in spec.split("|"):
        chunk = chunk.strip()
        parts.append(chunk.split() if tokens else list(chunk))
    return parts


def _word_text(word: Sequence[str]) -> str:
    if isinstance(word, str):
        return word
    return " ".join(word)


def _word_json(word: Sequence[str]) -> Any:
    if isinstance(word, str):
        return word
    return list(word)


def _label_json(label: Any) -> Any:
    if label is TWO:
        return "2"
    return list(label)


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _stage_line(t) -> str:
    spans = "".join(f"[{lo}..{hi}]" for lo, hi in t.blocks)
    return f"stage {t.stage_index}: mark '{t.letter}' -> {t.block_count} block(s): {spans}"


def _stage_json(t) -> dict:
    return {
        "stage": t.stage_index,
        "letter": t.letter,
        "blocks": [list(b) for b in t.blocks],
        "block_count": t.block_count,
        "marked": sorted(t.marked),
        "profile": {c: list(p) for c, p in t.profile.items()},
    }


# ---------------------------------------------------------------------------
# handlers
#
# A handler imports the graph, search and expression modules it needs in its
# body, so that a fresh `wg` process loads only what its verb runs.

def _cmd_graph(args) -> int:
    from .graphs import to_edge_list_text, to_json_dict

    g = graph_of_word(_word(args))
    if args.json:
        _print_json(to_json_dict(g))
    else:
        text = to_edge_list_text(g)
        if text:
            print(text)
    return 0


def _cmd_locality(args) -> int:
    word = _word(args)
    if args.sigma is not None:
        sigma = _sigma(args.sigma)
        m = max_block_count(word, sigma)
        if args.json:
            _print_json({"word": _word_json(word), "sigma": list(sigma), "max_block_count": m})
        else:
            print(f"{m} (sigma: {','.join(sigma)})")
        return 0
    budget = _resolve(args.budget_letters, "WG_BUDGET_LETTERS", LETTER_BUDGET_DEFAULT)
    k, witness = locality(word, letter_budget=budget)
    if args.json:
        _print_json({"word": _word_json(word), "locality": k, "witness": list(witness)})
    else:
        print(f"{k} (witness: {','.join(witness)})")
    return 0


def _cmd_check(args) -> int:
    word = _word(args)
    _check_k(args.k)
    if args.sigma is not None:
        sigma = _sigma(args.sigma)
        traces = simulate_marking(word, sigma)
        m = max((t.block_count for t in traces), default=0)
        ok = m <= args.k
        if args.json:
            _print_json(
                {
                    "word": _word_json(word),
                    "sigma": list(sigma),
                    "k": args.k,
                    "stages": [_stage_json(t) for t in traces],
                    "max_block_count": m,
                    "k_local": ok,
                }
            )
        else:
            for t in traces:
                print(_stage_line(t))
            print(f"{args.k}-local: {'yes' if ok else 'no'} (max block count {m})")
        return 0 if ok else 1
    budget = _resolve(args.budget_letters, "WG_BUDGET_LETTERS", LETTER_BUDGET_DEFAULT)
    ok = is_k_local(word, args.k, letter_budget=budget)
    if args.json:
        _print_json({"word": _word_json(word), "k": args.k, "k_local": ok})
    else:
        print(f"{args.k}-local: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_uniformize(args) -> int:
    from .representability import uniformize

    word = _word(args)
    sigma = _sigma(args.sigma)
    new_word, new_sigma = uniformize(word, args.k, sigma)
    if args.json:
        _print_json(
            {
                "input_word": _word_json(word),
                "input_sigma": list(sigma),
                "k": args.k,
                "word": _word_json(new_word),
                "sigma": list(new_sigma),
            }
        )
    else:
        print(f"word: {_word_text(new_word)}")
        print(f"sigma: {','.join(new_sigma)}")
    return 0


def _cmd_decide(args) -> int:
    from .graphs import graph_from_text
    from .representability import DECIDE_NODE_BUDGET_DEFAULT, MembershipQuery, decide_membership

    g = graph_from_text(_read_text(args.graph))
    node_budget = _resolve(args.budget_nodes, "WG_BUDGET_NODES", DECIDE_NODE_BUDGET_DEFAULT)
    max_len = _resolve(args.budget_len, "WG_BUDGET_LEN", 0) or None
    query = MembershipQuery(
        graph=g,
        class_kind=args.class_kind,
        k=args.k,
        node_budget=node_budget,
        max_len=max_len,
    )
    member, witness = decide_membership(query)
    if args.json:
        _print_json(
            {
                "class": args.class_kind,
                "k": args.k,
                "n": len(g.nodes),
                "member": member,
                "witness": _word_json(witness) if witness is not None else None,
            }
        )
    else:
        print(f"member: {'yes' if member else 'no'}")
        if member:
            print(f"witness: {_word_text(witness)}")
    return 0 if member else 1


def _cmd_gen(args) -> int:
    from .graphs import (
        clique_partition_graph,
        complete_graph,
        crown_graph,
        cycle_graph,
        empty_graph,
        fixture,
        path_graph,
        to_json_text,
    )

    kind = args.kind
    if kind in ("complete", "empty", "path", "cycle", "crown"):
        try:
            n = int(args.arg)
        except ValueError:
            raise ValueError(f"{kind} takes a node count, got {args.arg!r}") from None
        maker = {
            "complete": complete_graph,
            "empty": empty_graph,
            "path": path_graph,
            "cycle": cycle_graph,
            "crown": crown_graph,
        }[kind]
        g = maker(n)
    elif kind == "cliques":
        g = clique_partition_graph(_parts(args.arg, args.tokens))
    else:  # fixture
        g = fixture(args.arg)
    print(to_json_text(g))
    return 0


def _cmd_cliques(args) -> int:
    from .graphs import clique_partition_graph
    from .representability import represent_clique_partition

    parts = _parts(args.spec, args.tokens)
    word, sigma = represent_clique_partition(parts)
    m = max_block_count(word, sigma)
    expected = clique_partition_graph(parts)
    matches = graph_of_word(word) == expected
    ok = m <= 2 and matches
    if args.json:
        _print_json(
            {
                "word": _word_json(word),
                "sigma": list(sigma),
                "max_block_count": m,
                "two_local": m <= 2,
                "graph_matches": matches,
                "nodes": len(expected.nodes),
                "edges": len(expected.edges),
            }
        )
    else:
        print(f"word: {_word_text(word)}")
        print(f"sigma: {','.join(sigma)}")
        print(f"max block count: {m} (2-local: {'yes' if m <= 2 else 'no'})")
        print(
            f"graph matches clique partition: {'yes' if matches else 'no'} "
            f"({len(expected.nodes)} nodes, {len(expected.edges)} edges)"
        )
    return 0 if ok else 1


def _cmd_threshold(args) -> int:
    from .graphs import NODE_BUDGET_DEFAULT, graph_from_text, is_threshold, is_threshold_by_obstruction

    g = graph_from_text(_read_text(args.graph))
    elim = is_threshold(g)
    node_budget = _resolve(args.budget_nodes, "WG_BUDGET_NODES", NODE_BUDGET_DEFAULT)
    obstruction = None
    if len(g.nodes) <= node_budget:
        obstruction = is_threshold_by_obstruction(g, node_budget=node_budget)
        if obstruction != elim:
            raise RuntimeError(
                f"internal: elimination says {elim}, obstruction says {obstruction}"
            )
    if args.json:
        _print_json({"threshold": elim, "elimination": elim, "obstruction": obstruction})
    else:
        print(f"threshold: {'yes' if elim else 'no'}")
    return 0 if elim else 1


def _cmd_cwd(args) -> int:
    """`cwd build` and `cwd verify`: verify reports the check instead of the text."""
    from .cliquewidth import _build_expression, serialize

    word = _word(args)
    sigma = _sigma(args.sigma)
    # build_expression raises unless the expression evaluates to the word's
    # graph within the label limit, so a returned expression always matches
    expr, labels = _build_expression(word, sigma, args.k)
    verify = args.cwd_command == "verify"
    used = len(labels)
    limit = 2 ** args.k + 1
    if args.json:
        out = {
            "word": _word_json(word),
            "sigma": list(sigma),
            "k": args.k,
            "expression": serialize(expr),
            "labels_used": used,
        }
        if verify:
            out.update(matches=True, label_limit=limit)
        _print_json(out)
    elif verify:
        print("graph matches: yes")
        print(f"labels used: {used} (limit {limit})")
    else:
        print(serialize(expr))
    return 0


def _cmd_cwd_eval(args) -> int:
    from .cliquewidth import _label_text, eval_expression, parse
    from .graphs import to_json_dict

    expr = parse(_read_text(args.path))
    out = eval_expression(expr)
    if args.json:
        _print_json(
            {
                "graph": to_json_dict(out.graph),
                "labels": {v: _label_json(l) for v, l in out.labels.items()},
            }
        )
    else:
        print("nodes: " + " ".join(out.graph.sorted_nodes()))
        print("edges:")
        for u, v in out.graph.sorted_edges():
            print(f"{u} {v}")
        print("labels:")
        for v in out.graph.sorted_nodes():
            print(f"{v}: {_label_text(out.labels[v])}")
    return 0


def _cmd_speed(args) -> int:
    """Count the labeled n-node graphs in the class: one answer per
    isomorphism class, weighted by its labeled graphs, from the sweep
    `representability._speed_layers`."""
    from .graphs import ENUMERATION_BUDGET_DEFAULT, _is_threshold, bell_number
    from .representability import _speed_layers

    node_budget = _resolve(args.budget_nodes, "WG_BUDGET_NODES", ENUMERATION_BUDGET_DEFAULT)
    max_len = _resolve(args.budget_len, "WG_BUDGET_LEN", 0) or None
    crosscheck = args.class_kind == "L" and args.k == 1
    count = 0
    total = 0
    threshold_count = 0
    *_, last = _speed_layers(
        args.class_kind, args.k, args.n, node_budget=node_budget, max_len=max_len
    )
    for cls, word in last:
        total += cls.labeled
        if word is not None:
            count += cls.labeled
        if crosscheck and _is_threshold(cls.masks):
            threshold_count += cls.labeled
    pairs = args.n * (args.n - 1) // 2
    if total != 1 << pairs:
        raise RuntimeError(f"internal: the classes hold {total} labeled graphs, not 2^{pairs}")
    if crosscheck and count != threshold_count:
        raise RuntimeError(
            f"internal: decide count {count} disagrees with threshold count {threshold_count}"
        )
    bell = bell_number(args.n)
    if args.json:
        payload = {
            "class": args.class_kind,
            "k": args.k,
            "n": args.n,
            "count": count,
            "total": total,
            "bell": bell,
        }
        if crosscheck:
            payload["threshold_count"] = threshold_count
        _print_json(payload)
    else:
        print(f"count: {count} of {total} graphs (class {args.class_kind}, k={args.k}, n={args.n})")
        if crosscheck:
            print(f"threshold cross-check: {threshold_count} (agree)")
        print(f"bell B_{args.n}: {bell}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_word_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="the word; letters are characters, or tokens with --tokens")
    p.add_argument("--tokens", action="store_true", help="treat the word as whitespace-separated tokens")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The `wg` parser, with arguments only for the verbs argv names.

    Every verb's subparser is created, and, when argv names `cwd`, its
    three sub-verbs' too; but a verb's arguments, defaults and handler are
    added only when its name is an element of argv. With argv None every
    verb is filled. Parsing argv gives the same output either way: argparse
    enters a subparser only by an exact lookup of its name (no
    abbreviations), and that name is then an element of argv, so every
    subparser argparse enters is filled. The empty ones still exist, so the
    top-level usage, `wg --help` and the "invalid choice" list are those of
    the full parser. Filling one verb instead of all about halves the
    build, which is most of a short `wg` call run in process.
    """
    named = None if argv is None else set(argv)

    def verb(subparsers, name: str, help: str) -> argparse.ArgumentParser | None:
        # the subparser to fill, or None when argv never enters it
        p = subparsers.add_parser(name, help=help)
        return p if named is None or name in named else None

    parser = argparse.ArgumentParser(
        prog="wg", description="graphs represented by words: build, check, and search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = verb(sub, "graph", "graph represented by a word")
    if p is not None:
        _add_word_argument(p)
        _add_json(p)
        p.set_defaults(handler=_cmd_graph)

    p = verb(sub, "locality", "exact locality, or block counts under --sigma")
    if p is not None:
        _add_word_argument(p)
        p.add_argument("--sigma", help="comma-separated marking sequence")
        p.add_argument("--budget-letters", type=int, default=None, help="alphabet size limit for the search")
        _add_json(p)
        p.set_defaults(handler=_cmd_locality)

    p = verb(sub, "check", "is the word k-local?")
    if p is not None:
        _add_word_argument(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--sigma", help="verify this sequence and print its stage trace")
        p.add_argument("--budget-letters", type=int, default=None)
        _add_json(p)
        p.set_defaults(handler=_cmd_check)

    p = verb(sub, "uniformize", "cap occurrence counts of a k-local word at k+1")
    if p is not None:
        _add_word_argument(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--sigma", required=True, help="witnessing marking sequence")
        _add_json(p)
        p.set_defaults(handler=_cmd_uniformize)

    p = verb(sub, "decide", "bounded membership search for a graph")
    if p is not None:
        p.add_argument("--graph", required=True, help="graph file (JSON or edge list), - for stdin")
        p.add_argument("--class", dest="class_kind", required=True, choices=("L", "R"))
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--budget-nodes", type=int, default=None)
        p.add_argument("--budget-len", type=int, default=None, help="override the word length bound")
        _add_json(p)
        p.set_defaults(handler=_cmd_decide)

    p = verb(sub, "gen", "emit a generated graph as JSON")
    if p is not None:
        p.add_argument("kind", choices=("complete", "empty", "path", "cycle", "crown", "cliques", "fixture"))
        p.add_argument("arg", help="node count, parts like 'ab|cd|e', or a fixture name")
        p.add_argument("--tokens", action="store_true", help="parts contain whitespace-separated tokens")
        p.set_defaults(handler=_cmd_gen)

    p = verb(sub, "cliques", "2-local word for a union of cliques, with verification")
    if p is not None:
        p.add_argument("spec", help="parts like 'ab|cd|e'")
        p.add_argument("--tokens", action="store_true")
        _add_json(p)
        p.set_defaults(handler=_cmd_cliques)

    p = verb(sub, "threshold", "threshold recognition by elimination")
    if p is not None:
        p.add_argument("--graph", required=True, help="graph file (JSON or edge list), - for stdin")
        p.add_argument("--budget-nodes", type=int, default=None)
        _add_json(p)
        p.set_defaults(handler=_cmd_threshold)

    p = verb(sub, "cwd", "clique-width expressions")
    if p is not None:
        cwd_sub = p.add_subparsers(dest="cwd_command", required=True)

        q = verb(cwd_sub, "build", "expression for a word and marking witness")
        if q is not None:
            _add_word_argument(q)
            q.add_argument("--sigma", required=True)
            q.add_argument("--k", type=int, required=True)
            _add_json(q)
            q.set_defaults(handler=_cmd_cwd)

        q = verb(cwd_sub, "eval", "evaluate a serialized expression")
        if q is not None:
            q.add_argument("path", help="expression file, - for stdin")
            _add_json(q)
            q.set_defaults(handler=_cmd_cwd_eval)

        q = verb(cwd_sub, "verify", "build, evaluate, and compare against the word's graph")
        if q is not None:
            _add_word_argument(q)
            q.add_argument("--sigma", required=True)
            q.add_argument("--k", type=int, required=True)
            _add_json(q)
            q.set_defaults(handler=_cmd_cwd)

    p = verb(sub, "speed", "count class members over all labeled graphs on n nodes")
    if p is not None:
        p.add_argument("--class", dest="class_kind", required=True, choices=("L", "R"))
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--budget-nodes", type=int, default=None)
        p.add_argument("--budget-len", type=int, default=None)
        _add_json(p)
        p.set_defaults(handler=_cmd_speed)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 2
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
