"""The frozen value classes are slotted: no instance dict, no assignment,
and pickle and deepcopy give back an equal value with an equal hash."""

import copy
import dataclasses
import pickle

import pytest

from gcanon import sat
from gcanon.canon import CanonOptions, canonize
from gcanon.graph import Graph, OrderedPartition, Permutation, extensions

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

VALUES = {
    "graph": C5,
    "trusted_graph": Graph._trusted(3, (2, 5, 2)),
    "extension": list(extensions(C5))[19],
    "permutation": Permutation((2, 0, 1)),
    "partition": OrderedPartition(((1, 3), (0,), (2,))),
    "formula": sat.CnfFormula.of(3, [[1, -2], [2, 3], [-1]]),
    "canonical_result": canonize(C5),
    "canon_options": CanonOptions(OrderedPartition.unit(5)),
}


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]


def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


def test_fields_are_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_round_trip_equal_and_same_hash(value, round_trip):
    back = round_trip(value)
    assert back == value
    assert hash(back) == hash(value)


@pytest.mark.parametrize("rows", [(), (0,), (2, 1), (2, 5, 2), C5.rows])
def test_trusted_equals_checked(rows):
    n = len(rows)
    assert Graph._trusted(n, rows) == Graph(n, rows)
    assert hash(Graph._trusted(n, rows)) == hash(Graph(n, rows))


def test_extensions_equal_checked_graphs():
    for h in extensions(C5):
        assert h == Graph(h.n, h.rows)
        assert hash(h) == hash(Graph(h.n, h.rows))

