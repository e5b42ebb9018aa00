"""The ``cspfuzz`` CLI: exit codes, listing, replay, corpus wiring."""

import json

import pytest

from repro.quickcheck.cli import build_parser, main
from repro.quickcheck.corpus import write_case


def test_default_arguments_match_the_documented_invocation():
    args = build_parser().parse_args([])
    assert args.oracle == "all"
    assert args.seed == 0
    assert args.budget == 500
    assert args.corpus is None


def test_list_prints_the_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("laws", "semantics", "extractor", "lazy-eager"):
        assert name in out
    assert "guards:" in out


def test_unknown_oracle_exits_2(capsys):
    assert main(["--oracle", "no-such-oracle"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_small_green_campaign_exits_0(capsys):
    assert main(["--oracle", "laws", "--seed", "42", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "cspfuzz campaign: seed 42" in out
    assert "ok" in out


def test_replay_of_green_corpus_exits_0(tmp_path, capsys):
    from repro.csp.process import STOP

    write_case(str(tmp_path), "semantics", STOP, seed=1)
    assert main(["--replay", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 corpus file(s), 0 failing" in out


def test_replay_of_single_file_exits_0(tmp_path, capsys):
    from repro.csp.process import SKIP

    path = write_case(str(tmp_path), "normalise", SKIP, seed=2)
    assert main(["--replay", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_replay_flags_a_file_naming_an_unknown_oracle(tmp_path, capsys):
    path = write_case(str(tmp_path), "semantics", 0, seed=3)
    with open(path) as handle:
        doc = json.load(handle)
    doc["oracle"] = "retired-oracle"
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert main(["--replay", str(tmp_path)]) == 1
    assert "unknown oracle" in capsys.readouterr().out


def test_replay_of_empty_directory_exits_0(tmp_path, capsys):
    assert main(["--replay", str(tmp_path)]) == 0
    assert "no corpus files" in capsys.readouterr().out


def test_module_entry_point_is_wired():
    import repro.quickcheck.cli as cli

    # `python -m repro.quickcheck.cli` and the console script share main()
    assert callable(cli.main)
    assert cli.main is main


@pytest.mark.parametrize("flag", ["--quiet"])
def test_quiet_still_prints_the_summary(flag, capsys):
    assert main(["--oracle", "laws", "--budget", "5", flag]) == 0
    assert "cspfuzz campaign" in capsys.readouterr().out
