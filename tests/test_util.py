"""Table formatting, deterministic RNG."""

import pytest

from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table


class TestTables:
    def test_basic_alignment(self):
        text = format_table(
            ["name", "n"], [["alpha", 1], ["b", 1234]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text and "1234" in text
        widths = {len(line) for line in lines[2:]}
        assert len(widths) <= 2  # header+rows aligned (rstrip may vary)

    def test_none_renders_as_dash(self):
        text = format_table(["a"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_float_two_decimals(self):
        text = format_table(["a"], [[3.14159]])
        assert "3.14" in text and "3.142" not in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_left_and_right_alignment(self):
        text = format_table(["name", "n"], [["x", 5], ["longer", 10]])
        rows = text.splitlines()[1:]
        assert rows[1].startswith("x ")
        assert rows[1].rstrip().endswith("5")


class TestRng:
    def test_int_seed_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_string_seed_deterministic(self):
        assert make_rng("abc").random() == make_rng("abc").random()

    def test_different_seeds_differ(self):
        assert make_rng("abc").random() != make_rng("abd").random()

    def test_spawn_independent(self):
        rngs = spawn_rngs("seed", 3)
        values = [r.random() for r in rngs]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [r.random() for r in spawn_rngs("s", 2)]
        b = [r.random() for r in spawn_rngs("s", 2)]
        assert a == b
