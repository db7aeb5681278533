"""Shipped data files stay in sync with their builders and load cleanly, and
every public name resolves."""

import json
import os
import tempfile

import pytest
from importlib import resources

import qrubik
from qrubik import load_state_set, parse_protocol, run_protocol, validate_set
from qrubik.cli import main
from qrubik.make_data import write_data


def _packaged(name):
    return resources.files("qrubik").joinpath("data", name)


def test_public_names_resolve():
    assert [name for name in qrubik.__all__ if not hasattr(qrubik, name)] == []
    assert len(set(qrubik.__all__)) == len(qrubik.__all__)


@pytest.mark.parametrize(
    "name",
    ["example1.json", "prop1.json", "prop2.json", "bell.json", "b3.json", "b4.json"],
)
def test_packaged_files_match_builders(name):
    with tempfile.TemporaryDirectory() as tmp:
        write_data(tmp)
        fresh = open(os.path.join(tmp, name), "rb").read()
    shipped = _packaged(name).read_bytes()
    assert shipped == fresh, f"{name} drifted from its builder"


def test_packaged_state_sets_load():
    with resources.as_file(_packaged("b3.json")) as path:
        b3 = load_state_set(str(path))
    assert len(b3) == 24 and validate_set(b3).pairwise_orthogonal
    with resources.as_file(_packaged("b4.json")) as path:
        b4 = load_state_set(str(path))
    assert len(b4) == 54 and validate_set(b4).pairwise_orthogonal


def test_packaged_protocols_parse_and_run(capsys):
    code = main(["verify", "--input", "b4"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["strongly_nonlocal"] is True


def test_consumption_independent_of_candidate_order():
    with resources.as_file(_packaged("prop2.json")) as path:
        spec = parse_protocol(json.load(open(path)))
    with resources.as_file(_packaged("b3.json")) as path:
        b3 = load_state_set(str(path))
    from qrubik import StateSet

    reversed_set = StateSet(b3.layout, tuple(reversed(b3.states)))
    a = run_protocol(spec, b3)
    b = run_protocol(spec, reversed_set)
    pa = {(u.pair, u.dim): u.expected_copies for u in a.pair_usage}
    pb = {(u.pair, u.dim): u.expected_copies for u in b.pair_usage}
    assert set(pa) == set(pb)
    for key in pa:
        assert pa[key] == pytest.approx(pb[key], abs=1e-12)
    assert a.total_ebits == pytest.approx(b.total_ebits, abs=1e-12)
