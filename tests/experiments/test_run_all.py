"""Tests for the run_all CLI (cheap paths only — no simulations)."""

import dataclasses
import os
from typing import Tuple

import numpy as np
import pytest

from repro.experiments.run_all import EXPERIMENTS, _rows_of, main


class TestCli:
    def test_list_prints_all_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_every_figure_and_table_has_a_driver(self):
        expected = {
            "table1", "table3",
            "fig04", "fig05", "fig06", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15",
            "overheads", "resilience",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_fast_flag_sets_env(self, monkeypatch, capsys):
        # setenv first so teardown removes the value main() writes.
        monkeypatch.setenv("REPRO_FAST", "0")
        monkeypatch.delenv("REPRO_FAST")
        assert main(["--fast", "--only", "table3"]) == 0
        assert os.environ["REPRO_FAST"] == "1"


class TestCsvExport:
    def test_table3_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        assert main(["--only", "table3", "--out", str(tmp_path)]) == 0
        csv_path = tmp_path / "table3.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "depth" in header and "workload" in header
        body = csv_path.read_text().splitlines()[1:]
        assert len(body) == 5  # five Table III rows


@dataclasses.dataclass(frozen=True)
class _Nested:
    mean: float
    count: int


@dataclasses.dataclass(frozen=True)
class _Row:
    name: str
    score: float
    pair: Tuple[float, float]
    trace: np.ndarray
    stats: _Nested


class TestRowsOf:
    def _row(self):
        return _Row(
            name="a",
            score=1.5,
            pair=(0.25, 0.75),
            trace=np.zeros((3, 2)),
            stats=_Nested(mean=2.0, count=4),
        )

    def test_scalars_and_nested_dataclasses_flattened(self):
        (d,) = _rows_of([self._row()])
        assert d["name"] == "a" and d["score"] == 1.5
        assert d["stats.mean"] == 2.0 and d["stats.count"] == 4

    def test_tuple_of_floats_not_dropped(self):
        (d,) = _rows_of([self._row()])
        assert d["pair"] == "0.25;0.75"

    def test_arrays_summarized_by_shape(self):
        (d,) = _rows_of([self._row()])
        assert d["trace"] == "<array shape=(3, 2)>"

    def test_dict_result_values_flattened(self):
        rows = _rows_of({"x": 1.0, "ys": (1.0, 2.0)})
        assert {"key": "x", "value": 1.0} in rows
        assert {"key": "ys", "value": "1;2"} in rows

    def test_plain_items_wrapped(self):
        assert _rows_of([3.5]) == [{"value": 3.5}]

    def test_non_finite_floats_stringified(self):
        # Regression: an empty histogram's min leaked inf into the CSV
        # export, which is not valid JSON for typed-column consumers.
        import json

        rows = _rows_of({"lo": float("inf"), "hi": float("-inf"), "n": float("nan")})
        values = {r["key"]: r["value"] for r in rows}
        assert values == {"lo": "inf", "hi": "-inf", "n": "nan"}
        json.dumps(values)  # every exported value is JSON-clean


class TestJobsFlag:
    def test_jobs_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "--only", "table3"])

    def test_parallel_drivers_replay_output_in_order(self, monkeypatch, capsys):
        # Stub two drivers; fork-based workers inherit the patched table.
        calls = []

        def make(name):
            def run(out_dir, n):
                print(f"hello from {name}")
                calls.append(name)

            return run

        monkeypatch.setitem(EXPERIMENTS, "stub_a", make("stub_a"))
        monkeypatch.setitem(EXPERIMENTS, "stub_b", make("stub_b"))
        assert main(["--only", "stub_a,stub_b", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.index("hello from stub_a") < out.index("hello from stub_b")
        assert "===== stub_a =====" in out and "===== stub_b =====" in out

    def test_jobs_one_runs_inline(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setitem(
            EXPERIMENTS, "stub_c", lambda out_dir, n: ran.append(n)
        )
        assert main(["--only", "stub_c", "--jobs", "1"]) == 0
        assert ran == ["stub_c"]
