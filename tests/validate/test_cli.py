"""The ``python -m repro.validate`` command line.

Filters that select no cell must fail loudly: a mistyped CI invocation
that silently validated nothing would otherwise report
``matrix OK`` and exit 0.
"""

import pytest

from repro.validate.__main__ import main


class TestEmptySelection:
    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["--family", "zoo", "--controller", "parties"], "--controller"),
            (["--family", "multinode", "--scenario", "steady"], "--scenario"),
            (["--family", "faults", "--workload", "socialNetwork"], "--workload"),
        ],
    )
    def test_filters_selecting_nothing_exit_non_zero(self, argv, culprit, capsys):
        assert main(argv) != 0
        err = capsys.readouterr().err
        assert "no matrix cell matches" in err
        assert culprit in err

    def test_list_prints_one_key_per_selected_cell(self, capsys):
        assert main(["--family", "multinode", "--list"]) == 0
        keys = capsys.readouterr().out.split()
        assert len(keys) == 12
        assert all("/multinode-" in key for key in keys)
