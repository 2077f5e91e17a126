"""List multicoloring of weighted paths and free-choosability of cycles.

Each public name is loaded from its module on first use, so a program that
needs only the model never compiles the deciders, the transform or the
oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "model": (
        "BudgetExceededError",
        "Certificate",
        "Color",
        "Coloring",
        "Decision",
        "FreeChoiceInstance",
        "InternalInvariantError",
        "Instance",
        "InvalidInputError",
        "ListAssignment",
        "NotGoodError",
        "NotWaterfallError",
        "PreconditionError",
        "SearchBudget",
        "Topology",
        "Weights",
        "amplitude",
        "as_lists",
        "as_weights",
        "is_good",
        "is_waterfall",
        "validate_coloring",
    ),
    "waterfall": ("TransformReport", "pull_back_coloring", "to_waterfall"),
    "hall": (
        "HallSummand",
        "alpha_path",
        "construct_coloring_general",
        "construct_coloring_waterfall",
        "decide_waterfall",
        "decide_waterfall_prefix",
        "hall_check_path",
        "hall_summands",
    ),
    "cycles": (
        "ChoiceParameters",
        "Rational",
        "counterexample_list",
        "cycle_to_path",
        "endpoint_threshold",
        "even_ceil",
        "fchr",
        "is_free_choosable",
        "solve_free_choice",
    ),
    "oracle": ("brute_force", "brute_force_forced"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
