"""Words, the graphs they represent, marking-based locality, and
clique-width expressions built from marking witnesses."""

from .errors import BudgetExceededError
from .locality import (
    TWO,
    Label,
    MarkingSequence,
    block_labels,
    is_k_local,
    is_k_local_with,
    label_sort_key,
    locality,
    max_block_count,
    simulate_marking,
)
from .words import alphabet, alternates, graph_of_word, make_word, occurrences, project

# The names of the graph, search and expression modules load with their
# module on first use, and `StageTrace` is declared on first use
# (`locality._stage_trace`), so that `wg locality` imports neither those
# modules nor `dataclasses`. `locality` stays an eager import: the package
# attribute is the function, and importing the submodule later would
# rebind it to the module.
_LAZY = {
    name: module
    for module, names in (
        ("locality", ("StageTrace",)),
        (
            "cliquewidth",
            (
                "Connect",
                "Create",
                "CwdExpression",
                "LabeledGraph",
                "ParseError",
                "Rename",
                "RenameCycleError",
                "Union",
                "build_expression",
                "eval_expression",
                "labels_used",
                "parse",
                "schedule_renames",
                "serialize",
            ),
        ),
        (
            "graphs",
            (
                "Graph",
                "adjacency",
                "bell_number",
                "clique_partition_graph",
                "complete_graph",
                "contains_induced",
                "crown_graph",
                "cycle_graph",
                "empty_graph",
                "enumerate_labeled_graphs",
                "fixture",
                "fixture_names",
                "graph_from_edge_list_text",
                "graph_from_json_text",
                "graph_from_text",
                "induced_subgraph",
                "is_threshold",
                "is_threshold_by_obstruction",
                "partitionable_into",
                "path_graph",
                "set_partitions",
                "to_edge_list_text",
                "to_json_dict",
                "to_json_text",
            ),
        ),
        (
            "representability",
            (
                "MembershipQuery",
                "decide_membership",
                "oversized_letters",
                "represent_clique_partition",
                "uniformize",
            ),
        ),
    )
    for name in names
}


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

# every public name once: those the imports above bind, then the lazy ones;
# importing a submodule binds its name too (`errors`, `words`), left out here
__all__ = sorted(
    [n for n, v in globals().items() if not n.startswith("_") and type(v) is not type(errors)]
    + list(_LAZY)
)
