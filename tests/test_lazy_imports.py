"""Start-up: a command imports only the modules it uses, and the package's
public names resolve on first use to the objects of their home modules."""

import importlib
import os
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
    "dynamics": "DynamicsGraph GadgetBundle counter_gadget distinguishing_network"
                " fixed_points has_preimage is_bijective is_constant is_fixed_point"
                " is_identity limit_cycle_exists limit_cycles limit_isomorphic reachable"
                " step step_trace subdynamics transition_graph",
    "enumeration": "class_count enum_bp enum_bp0 enum_bp_star",
    "errors": "BlockparError CrossCheckError NetworkSyntaxError ResourceCapError"
              " ScheduleFormatError",
    "network": "BooleanNetwork eval_local format_config identity_network parse_config"
               " parse_network random_network serialize_network update_block",
    "partitions": "Partition PrimeGadgetBasis gadget_primes lcm_of partitions_of",
    "schedule": "BlockSequence MatrixRepresentation PartitionedOrder equiv0 equiv_star"
                " is_bs_intersection matrix_repr parse_schedule phi serialize_schedule",
}

PROBE = """
import sys
import blockpar.cli
after_import = sorted(m for m in {heavy} + ("blockpar.dynamics",) if m in sys.modules)
status = blockpar.cli.main(["check", "identity", "--network", {network!r},
                            "--schedule", "[[0],[1]]"])
after_check = sorted(m for m in {heavy} if m in sys.modules)
print(status, after_import, after_check)
"""


def _env() -> dict:
    """The environment of a probe process, with this package importable."""
    source = str(Path(blockpar.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}


def test_check_loads_no_enumeration_counting_or_pool(tmp_path):
    network = tmp_path / "identity.bn"
    network.write_text("x0 = x0\nx1 = x1\n")
    probe = PROBE.format(heavy=HEAVY, network=str(network))
    result = subprocess.run([sys.executable, "-c", probe], env=_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["true", "0 [] []"]


def test_counting_loads_fractions_only_for_the_egf_route():
    probe = ("import sys, blockpar.counting as c;"
             " before = 'fractions' in sys.modules;"
             " c.count_bp0_via_egf(3);"
             " print(before, 'fractions' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "True"]


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
