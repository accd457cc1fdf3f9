"""Byte-level pins of the user-visible output streams.

Each digest is the sha256 of an output as produced by the reference
implementation.  A refactor that keeps behaviour must keep every digest:
the graph6 streams of geng and both Ramsey pipelines, the DIMACS text of the
Ramsey encoding, and the order (and every variable, auxiliaries included) of
the models the solver enumerates.
"""

import hashlib

import pytest

from gcanon import ramsey, sat
from gcanon.cli import run


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,lines,digest", [
    (["geng", "6"], 156,
     "2d77a335748b48f526e5270606f9976b236dfeeedcdc24dd2e322734360ce82a"),
    (["ramsey", "gt", "3", "5", "9"], 290,
     "6835524d08a0cf9e60ecdf5e8af0e13103f09f0a00701cb84be2f5a84d3062a4"),
    (["ramsey", "cg", "3", "5", "8"], 179,
     "39a5174e961f3d6c17604aab1d449039a91c59c6c8d0f6458c2ab38fb63d0a40"),
    (["ramsey", "cnf", "3", "5", "6"], 297,
     "92072a4cdbe830b569c674085f0fdc2605083e8f240110b4e8f5eae54cc82a05"),
], ids=["geng6", "gt359", "cg358", "cnf356"])
def test_cli_stream(capsys, argv, lines, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert sha256(out) == digest


def model_text(models):
    """One 0/1 line per model over every variable, in solver order."""
    return "".join("".join(map(str, m)) + "\n" for m in models)


@pytest.mark.parametrize("s,t,n,count,digest", [
    (3, 3, 5, 1,
     "7e08a7ebeec2621e6ee492b13db7282d75dc967f9f6f27954f440fbebda05b30"),
    (3, 4, 7, 43,
     "1089470fa7521ec8d5afddf1f4a15bc092a3b125ed3c6a47928d470e38901a77"),
])
def test_solve_all_model_order(s, t, n, count, digest):
    evm, f = ramsey.encode_ramsey(ramsey.RamseyInstance(s, t, n))
    models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
    assert len(models) == count
    assert sha256(model_text(models)) == digest


@pytest.mark.parametrize("n,count,digest", [
    (10, 7319,
     "a2b9bca6b25512a8ac41b8c409f8ba94882e2ce4b9fe6dd680c51195554c0595"),
    (11, 3806,
     "8c6bb1b50d2ddc174423e617816e0718989675150d845aa9d49d3d2cb6426abd"),
])
def test_35_model_bytes(n, count, digest):
    # The (3,5;n) streams that constrain-generate reads, pinned on the
    # models' own bytes: model_text spells each byte as a digit, which
    # would make this test several times slower.
    evm, f = ramsey.encode_ramsey(ramsey.RamseyInstance(3, 5, n))
    models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
    assert len(models) == count
    assert hashlib.sha256(
        b"".join(models)).hexdigest() == digest


def test_solve_model():
    _, f = ramsey.encode_ramsey(ramsey.RamseyInstance(3, 4, 7))
    assert sha256(model_text([sat.solve(f)])) == \
        "62af57595b961d5ff83949edb7231a9856a93e47a0520a90aab9a882b6b0cc22"
