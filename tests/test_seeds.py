"""Every random stream of the package is drawn through `cpdistill.seeds`,
from the key table in its docstring."""
import ast
from pathlib import Path

import numpy as np
import pytest

import cpdistill
from cpdistill import seeds

SRC = Path(cpdistill.__file__).resolve().parent
TAGS = {name: value for name, value in vars(seeds).items()
        if name.isupper() and isinstance(value, int)}


def _called_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_seeds_makes_generators():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "seeds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                assert name not in ("default_rng", "SeedSequence"), (
                    f"{path.name}:{node.lineno} calls {name}")


def test_tags_are_nonzero_distinct_and_in_the_key_table():
    assert len(TAGS) == 11
    assert all(value != 0 for value in TAGS.values())
    assert len(set(TAGS.values())) == len(TAGS)
    for name in TAGS:
        assert f", {name}" in seeds.__doc__, name


def test_trailing_zeros_name_the_same_stream():
    # why every tag is nonzero
    draw = seeds.rng(3, 5).integers(0, 2**62, 4)
    assert np.array_equal(seeds.rng(3, 5, 0).integers(0, 2**62, 4), draw)
    assert not np.array_equal(seeds.rng(3, 5, 1).integers(0, 2**62, 4), draw)


@pytest.mark.parametrize("n", [0, 1, 2**31 - 1, 2**32, 2**64 + 7])
def test_keys_match_numpy_seeding(n):
    def state(g):
        return g.bit_generator.state["state"]["state"]

    assert state(seeds.rng(n)) == state(np.random.default_rng(n))
    assert state(seeds.rng(n, seeds.NOISE)) == state(np.random.default_rng((n, seeds.NOISE)))


def test_int_seed_is_31_bit_and_keyed():
    values = {seeds.int_seed(7, k, seeds.COLLECT, i) for k in range(1, 4) for i in range(4)}
    assert len(values) == 12
    assert all(0 <= v < 2**31 for v in values)
