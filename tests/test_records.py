"""The immutable records: type-strict equality, hashing, pickling, frozen
fields and ``repr``, and the bytes of the ``--report`` run record.

The ``repr`` strings and the report documents were pinned from the frozen
dataclasses these records replaced.
"""

import json
import pickle
import re

import pytest

from blockpar.cli import main
from blockpar.gadget import PrimeGadgetBasis, counter_gadget, gadget_primes
from blockpar.network import TEXT, And, Const, Not, Or, Spelling, Var, Xor
from blockpar.partitions import Partition
from blockpar.schedule import BlockSequence, PartitionedOrder, matrix_repr

#: (factory, its repr, a record of another type with the same field values)
RECORDS = [
    (lambda: TEXT, "Spelling(var='x{}', one='1', negation='!{}', negation_precedence=4)",
     None),
    (lambda: Spelling("a", "b", "c", 1), "Spelling(var='a', one='b', negation='c',"
     " negation_precedence=1)", None),
    (lambda: Var(1), "Var(index=1)", lambda: Const(1)),
    (lambda: Const(1), "Const(value=1)", lambda: Var(1)),
    (lambda: Not(Var(0)), "Not(operand=Var(index=0))", None),
    (lambda: And(Var(0), Var(1)), "And(operands=(Var(index=0), Var(index=1)))",
     lambda: Or(Var(0), Var(1))),
    (lambda: Or(Var(0), Const(0)), "Or(operands=(Var(index=0), Const(value=0)))",
     lambda: Xor(Var(0), Const(0))),
    (lambda: Xor(Var(0), Not(Var(1)), Var(2)),
     "Xor(operands=(Var(index=0), Not(operand=Var(index=1)), Var(index=2)))",
     lambda: And(Var(0), Not(Var(1)), Var(2))),
    (lambda: And(And(Var(0), Var(1)), Var(2)),
     "And(operands=(Var(index=0), Var(index=1), Var(index=2)))", None),
    (lambda: Partition(3, (2, 1)), "Partition(n=3, parts=(2, 1))", None),
    (lambda: Partition.parse("1+2+2"), "Partition(n=5, parts=(2, 2, 1))", None),
    (lambda: gadget_primes(3),
     "PrimeGadgetBasis(n=3, primes=(2, 3, 5, 7), cumulative=(0, 2, 5, 10, 17))", None),
    (lambda: BlockSequence(3, ((2, 0), (1,))), "BlockSequence(n=3, blocks=((0, 2), (1,)))",
     None),
    (lambda: matrix_repr(PartitionedOrder(3, [[0], [2, 1]])),
     "MatrixRepresentation(n=3, matrices=((1, ((0,),)), (2, ((2, 1),))))", None),
    (lambda: counter_gadget(2),
     "GadgetBundle(network=BooleanNetwork(7 automata), schedule=PartitionedOrder(7,"
     " [[5], [6], [0, 1], [2, 3, 4]]), padding=range(0, 5), counter=range(5, 7),"
     " basis=PrimeGadgetBasis(n=2, primes=(2, 3), cumulative=(0, 2, 5)))", None),
]


@pytest.mark.parametrize("make, text, other", RECORDS, ids=[r[1].split("(")[0] + str(i)
                                                         for i, r in enumerate(RECORDS)])
def test_record_behaviour(make, text, other):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != object() and record != text
    if other is not None:
        assert record != other() and other() != record
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_partition_multiplicities_survive_pickling():
    p = pickle.loads(pickle.dumps(Partition.parse("3+1+1")))
    assert p.multiplicities == (0, 2, 0, 1)
    assert (p.m(1), p.m(2), p.m(3), p.m(4)) == (2, 0, 1, 0)


def test_records_accept_their_fields_by_name():
    assert Partition(n=3, parts=(1, 2)) == Partition(3, (2, 1))
    assert Spelling(var="v", one="1", negation="~{}", negation_precedence=2) \
        == Spelling("v", "1", "~{}", 2)
    assert PrimeGadgetBasis(2, (2, 3), cumulative=(0, 2, 5)) == gadget_primes(2)
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var(1, 2)
    with pytest.raises(TypeError):
        Var(1, index=2)


COUNT_REPORT = """{
  "command": "count",
  "parameters": {
    "command": "count",
    "n_max": 3,
    "format": "json",
    "out": null
  },
  "duration_s": DURATION,
  "result": {
    "rows": 3
  },
  "exit_status": 0
}
"""

CHECK_REPORT = """{
  "command": "check",
  "parameters": {
    "command": "check",
    "property": "limit-cycle:2",
    "network": NETWORK,
    "schedule": "[[0],[1]]",
    "config": null,
    "cap_substeps": 1000000,
    "target": null,
    "graph": null
  },
  "duration_s": DURATION,
  "result": {
    "answer": true
  },
  "exit_status": 0
}
"""


def _report_text(path) -> str:
    """The report's bytes with its one duration replaced by ``DURATION``."""
    text, swaps = re.subn(r'(?m)^  "duration_s": [0-9.e-]+,$', '  "duration_s": DURATION,',
                          path.read_text(encoding="utf-8"))
    assert swaps == 1
    return text


def test_report_bytes_of_count_and_check(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["--report", str(report), "count", "3", "--format", "json"]) == 0
    assert _report_text(report) == COUNT_REPORT
    network = tmp_path / "net.bn"
    network.write_text("x0 = x1\nx1 = x0 & !x1\n")
    assert main(["--report", str(report), "check", "limit-cycle:2", "--network",
                 str(network), "--schedule", "[[0],[1]]"]) == 0
    assert _report_text(report) == CHECK_REPORT.replace("NETWORK", json.dumps(str(network)))
    assert capsys.readouterr().out.endswith("]\ntrue\n")
