"""Start-up: a command imports only the modules it uses, and the package's
public names resolve on first use to the objects of their home modules."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import blockpar

#: Loaded by commands that enumerate, count or time, never by ``check``.
HEAVY = ("blockpar.enumeration", "blockpar.counting", "multiprocessing", "statistics")

#: The package's public names, by home module.
PUBLIC = {
    "counting": "count_bp count_bp0 count_bp0_via_egf count_bp_star count_bs"
                " count_bs_inter_bp",
    "dynamics": "DynamicsGraph distinguishing_network fixed_points has_preimage is_bijective"
                " is_constant is_fixed_point is_identity limit_cycle_exists limit_cycles"
                " limit_isomorphic reachable subdynamics transition_graph",
    "enumeration": "class_count enum_bp enum_bp0 enum_bp_star",
    "errors": "BlockparError CrossCheckError NetworkSyntaxError ResourceCapError"
              " ScheduleFormatError",
    "gadget": "GadgetBundle PrimeGadgetBasis counter_gadget gadget_primes",
    "kernel": "step step_trace",
    "network": "BooleanNetwork eval_local format_config identity_network parse_config"
               " parse_network random_network serialize_network update_block",
    "partitions": "Partition lcm_of partitions_of",
    "schedule": "BlockSequence MatrixRepresentation PartitionedOrder equiv0 equiv_star"
                " is_bs_intersection matrix_repr parse_schedule phi serialize_schedule",
}

#: Imports the CLI, runs the command ``argv`` (if any) with stdout discarded,
#: and prints its exit status and which modules of ``watch`` were loaded
#: before and after it ran.
PROBE = """
import os
import blockpar.cli
watch = {watch!r}
before = sorted(m for m in watch if m in sys.modules)
stdout = sys.stdout
sys.stdout = open(os.devnull, "w")
status = blockpar.cli.main({argv!r}) if {argv!r} else 0
sys.stdout = stdout
print(status, before, sorted(m for m in watch if m in sys.modules))
"""


def _probe(code: str) -> str:
    """The stdout of ``code`` in a clean interpreter: ``-I`` ignores
    ``PYTHONPATH`` and the user's site, ``-S`` skips ``site`` (which loads
    modules of its own), ``-B`` writes no bytecode (``-I`` also ignores
    ``PYTHONDONTWRITEBYTECODE``), and the probe puts this package on
    ``sys.path``."""
    source = str(Path(blockpar.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys; sys.path.insert(0, {source!r})\n" + code],
        capture_output=True, text=True, check=True,
    )
    return result.stdout


def _loaded(argv: list[str], watch: tuple[str, ...]) -> str:
    return _probe(PROBE.format(argv=argv, watch=watch)).splitlines()[-1]


def test_importing_the_cli_loads_no_dataclasses_json_or_network_code():
    watch = ("dataclasses", "inspect", "json", "blockpar.network", "blockpar.schedule")
    assert _loaded([], watch) == "0 [] []"


def test_count_loads_no_network_enumeration_or_dynamics():
    watch = ("blockpar.network", "blockpar.enumeration", "blockpar.dynamics",
             "dataclasses", "json")
    assert _loaded(["count", "3"], watch) == "0 [] []"


def test_enum_loads_no_network_dynamics_or_counting():
    watch = ("blockpar.network", "blockpar.dynamics", "blockpar.counting",
             "dataclasses", "json")
    assert _loaded(["enum", "3", "--limit", "1"], watch) == "0 [] []"


def test_check_loads_no_enumeration_counting_or_pool(tmp_path):
    network = tmp_path / "identity.bn"
    network.write_text("x0 = x0\nx1 = x1\n")
    argv = ["check", "identity", "--network", str(network), "--schedule", "[[0],[1]]"]
    assert _loaded(argv, HEAVY + ("blockpar.dynamics",)) == "0 [] ['blockpar.dynamics']"


@pytest.mark.parametrize("command", ["step", "trace"])
def test_step_and_trace_load_the_kernel_not_dynamics(tmp_path, command):
    network = tmp_path / "swap.bn"
    network.write_text("x0 = x1\nx1 = !x0\n")
    argv = [command, "--network", str(network), "--schedule", "[[0,1]]", "--config", "01"]
    watch = HEAVY + ("blockpar.dynamics", "blockpar.kernel")
    assert _loaded(argv, watch) == "0 [] ['blockpar.kernel']"


def test_gadget_loads_neither_dynamics_nor_the_kernel():
    watch = ("blockpar.gadget", "blockpar.dynamics", "blockpar.kernel")
    assert _loaded(["gadget", "counter", "3"], watch) == "0 [] ['blockpar.gadget']"


@pytest.mark.parametrize("command", ["count", "enum", "check", "step", "trace"])
def test_other_commands_load_no_gadget_code(tmp_path, command):
    network = tmp_path / "swap.bn"
    network.write_text("x0 = x1\nx1 = !x0\n")
    simulation = ["--network", str(network), "--schedule", "[[0],[1]]", "--config", "01"]
    argv = {
        "count": ["count", "3"],
        "enum": ["enum", "3", "--limit", "1"],
        "check": ["check", "fixed-point", *simulation],
        "step": ["step", *simulation],
        "trace": ["trace", *simulation],
    }[command]
    assert _loaded(argv, ("blockpar.gadget",)) == "0 [] []"


@pytest.mark.parametrize("module", ["dynamics.py", "enumeration.py", "blocktext.py"])
def test_dynamics_stays_under_the_parsers_token_step(module):
    # Every check and export compiles dynamics.py, and every enum command
    # the other two. Past 4,096 tokens the parser doubles its token array
    # and allocates a token for each new slot, about 0.25 MB more peak
    # memory for each of those commands.
    import tokenize

    path = Path(blockpar.__file__).parent / module
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in skipped]
    assert len(tokens) < 4096


def test_dynamics_reexports_the_kernel():
    from blockpar import dynamics, kernel

    assert dynamics.step is kernel.step
    assert dynamics.step_trace is kernel.step_trace


def test_counting_loads_fractions_only_for_the_egf_route():
    probe = ("import blockpar.counting as c;"
             " before = 'fractions' in sys.modules;"
             " c.count_bp0_via_egf(3);"
             " print(before, 'fractions' in sys.modules)")
    assert _probe(probe).split() == ["False", "True"]


def test_every_public_name_is_its_home_modules_object():
    homes = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert sorted(blockpar.__all__) == sorted(homes)
    for name, module in homes.items():
        home = importlib.import_module(f"blockpar.{module}")
        assert getattr(blockpar, name) is getattr(home, name)
    assert set(blockpar.__all__) <= set(dir(blockpar))
    namespace: dict = {}
    exec("from blockpar import *", namespace)
    assert {name: namespace[name] for name in homes} \
        == {name: getattr(blockpar, name) for name in homes}


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        blockpar.nope  # noqa: B018
    from blockpar import schedule

    assert schedule.parse_schedule is blockpar.parse_schedule
