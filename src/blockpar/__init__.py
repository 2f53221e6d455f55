"""Block-parallel update schedules for Boolean automata networks.

Exact counting and streaming enumeration of schedule classes, a
substep-exact dynamics simulator with attractor analysis and exhaustive
desk-scale deciders, and prime-counter gadget constructions.

The names below are imported from their modules on first use, so importing
one module of the package loads only what it needs: the command line loads
``errors`` alone, and each command adds the modules it runs.
"""

from importlib import import_module

#: The module each public name is defined in.
_HOME_OF = {name: module for module, names in {
    "counting": (
        "count_bp",
        "count_bp0",
        "count_bp0_via_egf",
        "count_bp_star",
        "count_bs",
        "count_bs_inter_bp",
    ),
    "dynamics": (
        "DynamicsGraph",
        "distinguishing_network",
        "fixed_points",
        "has_preimage",
        "is_bijective",
        "is_constant",
        "is_fixed_point",
        "is_identity",
        "limit_cycle_exists",
        "limit_cycles",
        "limit_isomorphic",
        "reachable",
        "subdynamics",
        "transition_graph",
    ),
    "enumeration": ("class_count", "enum_bp", "enum_bp0", "enum_bp_star"),
    "errors": (
        "BlockparError",
        "CrossCheckError",
        "NetworkSyntaxError",
        "ResourceCapError",
        "ScheduleFormatError",
    ),
    "gadget": ("GadgetBundle", "PrimeGadgetBasis", "counter_gadget", "gadget_primes"),
    "kernel": ("step", "step_trace"),
    "network": (
        "BooleanNetwork",
        "eval_local",
        "format_config",
        "identity_network",
        "parse_config",
        "parse_network",
        "random_network",
        "serialize_network",
        "update_block",
    ),
    "partitions": ("Partition", "lcm_of", "partitions_of"),
    "schedule": (
        "BlockSequence",
        "MatrixRepresentation",
        "PartitionedOrder",
        "equiv0",
        "equiv_star",
        "is_bs_intersection",
        "matrix_repr",
        "parse_schedule",
        "phi",
        "serialize_schedule",
    ),
}.items() for name in names}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
