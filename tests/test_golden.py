"""CLI reports stay byte-identical to the committed golden files.

Each file in tests/golden/ is the `--out` report of one quick CLI command,
named in COMMANDS. A change that means to alter a report replaces its
golden file in the same commit and says why.
"""

import pathlib

import pytest

from spanalg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "finset-validate": ["validate", "--category", "finset", "--max-size", "2"],
    "finset-quotient": ["quotient", "--category", "finset", "--max-size", "2"],
    "finset-tabulate": ["tabulate", "--category", "finset", "--max-size", "2"],
    "finset-check-allegory-surj-inj": ["check-allegory", "--category", "finset",
                                       "--system", "surj-inj", "--max-size", "2"],
    "finset-check-allegory-iso-all": ["check-allegory", "--category", "finset",
                                      "--system", "iso-all", "--max-size", "2"],
    "finset-check-allegory-iso-all-simEbullet": ["check-allegory", "--category", "finset",
                                                 "--system", "iso-all", "--relation",
                                                 "simEbullet", "--max-size", "2"],
    # a suite cut at the bound, and one over homs with undecided comparisons
    "finset-check-allegory-bound-64": ["check-allegory", "--category", "finset",
                                       "--max-size", "2", "--bound", "64"],
    "finset-check-allegory-iso-all-simEo": ["check-allegory", "--category", "finset",
                                            "--system", "iso-all", "--relation", "simEo",
                                            "--max-size", "2"],
    # cut on hom(2,3) at the default bound, with the pairs of hom(3,3) cut too
    "finset-check-allegory-3": ["check-allegory", "--category", "finset", "--max-size", "3"],
    "finset-ebullet-iso-all": ["ebullet", "--category", "finset", "--system", "iso-all",
                               "--max-size", "2"],
    "finset-ebullet-surj-inj-3": ["ebullet", "--category", "finset", "--system", "surj-inj",
                                  "--max-size", "3"],
    "finset-ebullet-iso-all-3": ["ebullet", "--category", "finset", "--system", "iso-all",
                                 "--max-size", "3"],
    "finset-ebullet-all-iso-3": ["ebullet", "--category", "finset", "--system", "all-iso",
                                 "--max-size", "3"],
    "finset-map-counit": ["map-counit", "--category", "finset", "--max-size", "1"],
    "finset-map-counit-2": ["map-counit", "--category", "finset", "--max-size", "2"],
    # the counit misses four hom classes, so the run Fails on surjectivity
    "finset-map-counit-iso-all": ["map-counit", "--category", "finset", "--system", "iso-all",
                                  "--max-size", "2"],
    "finset-map-counit-iso-all-simEbullet": ["map-counit", "--category", "finset",
                                             "--system", "iso-all", "--relation",
                                             "simEbullet", "--max-size", "2"],
    "thin-check-allegory": ["check-allegory", "--category", "thin", "--max-size", "4"],
    # the 5-chain under iso-all, whose classes have no key and are grouped by equal
    "thin-check-allegory-5": ["check-allegory", "--category", "thin", "--system", "iso-all",
                              "--max-size", "5"],
    "thin-check-allegory-simEo": ["check-allegory", "--category", "thin", "--relation",
                                  "simEo", "--max-size", "3"],
    "thin-tabulate": ["tabulate", "--category", "thin", "--max-size", "3"],
    "thin-map-counit": ["map-counit", "--category", "thin", "--max-size", "3"],
    "thin-ebullet": ["ebullet", "--category", "thin", "--max-size", "3"],
    "fincat-map-counit": ["map-counit", "--category", "fincat", "--max-size", "1"],
    # the one report whose check names print a TableCategory repr
    "fincat-quotient-0": ["quotient", "--category", "fincat", "--max-size", "0",
                          "--format", "json"],
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.jsonl")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    main(COMMANDS[name] + ["--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()
