import json
import os
import pathlib
import subprocess
import sys

import pytest

import spanalg
from spanalg import cli
from spanalg.cli import main
from spanalg.verdict import Verdict


def run(argv):
    return main(argv)


def test_validate_holds(capsys):
    assert run(["validate", "--category", "finset", "--system", "surj-inj",
                "--max-size", "3"]) == 0
    out = capsys.readouterr().out
    assert "system-valid" in out


def test_validate_iso_all_holds(capsys):
    assert run(["validate", "--category", "finset", "--system", "iso-all",
                "--max-size", "2"]) == 0


def test_check_allegory_surj_inj(capsys):
    assert run(["check-allegory", "--max-size", "2"]) == 0


def test_bound_cuts_the_order_triples(capsys):
    code = run(["check-allegory", "--max-size", "1", "--bound", "3", "--format", "json"])
    assert code == 3
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    suite = {l["check"]: l for l in lines}["allegory-suite"]
    assert suite["verdict"] == "Unknown"
    assert suite["reason"] == "associativity triples on hom(1,1) cut at the bound (3 of 8)"


def test_check_allegory_iso_all_fails_with_witness(capsys):
    code = run(["check-allegory", "--system", "iso-all", "--max-size", "2",
                "--format", "json"])
    assert code == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    by_check = {l["check"]: l for l in lines}
    assert by_check["allegorical-relation"]["verdict"] == "Fails"
    assert "2->1" in by_check["allegorical-relation"]["witness"]
    assert by_check["retraction-criterion"]["verdict"] == "Fails"
    # pipeline skips later stages after a failed suite
    assert by_check["unit"]["verdict"] == "Unknown"


def test_check_allegory_ebullet_repair(capsys):
    assert run(["check-allegory", "--system", "iso-all",
                "--relation", "simEbullet", "--max-size", "2"]) == 0


def test_ebullet_dump(capsys):
    code = run(["ebullet", "--system", "iso-all", "--max-size", "2",
                "--format", "json"])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    names = [l["check"] for l in lines]
    assert "ecirc-included-in-ebullet" in names
    assert any(n.startswith("class-") for n in names)


@pytest.mark.parametrize("relation, size", [("simEo", 3), ("simEo", 4), ("simEbullet", 3)])
def test_thin_closure_relations_are_conclusive(capsys, relation, size):
    # the chain lists every object, so a failed middle-span search is a Fails
    code = run(["check-allegory", "--category", "thin", "--relation", relation,
                "--max-size", str(size), "--format", "json"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [(l["check"], l["verdict"]) for l in lines] == [
        (check, "Holds") for check in ("allegory-suite", "seeded-modular-triples",
                                       "allegorical-relation", "retraction-criterion",
                                       "unit")]
    assert code == 0


def test_map_counit_checks_the_thin_counit(capsys):
    assert run(["map-counit", "--category", "thin", "--max-size", "4",
                "--format", "json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    counits = {l["check"]: l for l in lines if l["check"].startswith("counit-")}
    assert len(counits) == 16
    # a class 3 -> 2 of the 4-chain is fixed by its apex, one of 0, 1, 2
    assert counits["counit-3-2"]["reason"] == "bijection on 3 classes"
    assert all(l["verdict"] == "Holds" for l in counits.values())


def test_ebullet_surj_inj_stays_put(capsys):
    # repairing a mono-M system changes nothing; the inclusion check holds
    assert run(["ebullet", "--system", "surj-inj", "--max-size", "2"]) == 0


class _ScriptedEbullet:
    """Stands in for simEbullet: answers `equal` from a script, then
    Unknown, and records the pairs it was asked about."""

    def __init__(self, *answers):
        self.answers = iter(answers)
        self.pairs = []

    def equal(self, s1, s2):
        self.pairs.append((s1, s2))
        return next(self.answers, Verdict.maybe("undecided"))


def _ebullet_with(monkeypatch, capsys, eqb):
    real = cli.make_equivalence
    monkeypatch.setattr(cli, "make_equivalence", lambda cat, name, **kw:
                        eqb if name == "simEbullet" else real(cat, name, **kw))
    code = run(["ebullet", "--system", "iso-all", "--max-size", "2", "--format", "json"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    return code, {l["check"]: l for l in lines}["ecirc-included-in-ebullet"]


def test_ebullet_inclusion_is_unknown_where_ebullet_is_undecided(monkeypatch, capsys):
    eqb = _ScriptedEbullet()
    code, line = _ebullet_with(monkeypatch, capsys, eqb)
    assert code == 3
    assert line["verdict"] == "Unknown"
    s1, s2 = eqb.pairs[0]
    assert line["reason"] == f"E-bullet undecided on the related pair {s1!r}, {s2!r}"
    # the walk went on looking for a refutation
    assert len(eqb.pairs) > 1


def test_ebullet_inclusion_fails_on_a_refutation_after_an_undecided_pair(monkeypatch, capsys):
    eqb = _ScriptedEbullet(Verdict.maybe("undecided"), Verdict.yes(), Verdict.no())
    code, line = _ebullet_with(monkeypatch, capsys, eqb)
    assert code == 1
    assert line["verdict"] == "Fails"
    assert line["reason"] == "related under E-circ but not E-bullet"
    assert len(eqb.pairs) == 3


def test_quotient_and_tabulate(capsys):
    assert run(["quotient", "--max-size", "2"]) == 0
    assert run(["tabulate", "--max-size", "2"]) == 0


def test_map_counit_finset(capsys):
    code = run(["map-counit", "--max-size", "1", "--format", "json"])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    maps11 = next(l for l in lines if l["check"] == "maps-1-1")
    assert "1 maps" in maps11["reason"]


def test_text_format_prints_each_reason(capsys):
    assert run(["map-counit", "--max-size", "1"]) == 0
    out = capsys.readouterr().out
    assert "bijection on 2 classes" in out
    assert "1 maps: ['iso']" in out


def test_map_counit_repaired_iso_all_is_bijective(capsys):
    # every map of this quotient is an iso, so spans of maps over distinct
    # apexes can be isomorphic; the counit must see them as one relation
    code = run(["map-counit", "--category", "finset", "--system", "iso-all",
                "--relation", "simEbullet", "--max-size", "2", "--format", "json"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    counits = {l["check"]: l for l in lines if l["check"].startswith("counit-")}
    assert sorted(counits) == [f"counit-{a}-{b}" for a in range(3) for b in range(3)]
    assert all(l["verdict"] == "Holds" for l in counits.values()), counits
    assert code == 0


def test_table_validation(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "objects": ["x"],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x"}],
        "identities": {"x": "i"},
        "composition": [],
    }))
    assert run(["validate", "--category", "table", "--file", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "objects": ["x"],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x"},
                      {"id": "e", "dom": "x", "cod": "x"}],
        "identities": {"x": "i"},
        "composition": [],
    }))
    assert run(["validate", "--category", "table", "--file", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_thin_pipeline(capsys):
    assert run(["check-allegory", "--category", "thin", "--max-size", "3"]) == 0


def test_determinism_and_replay(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for out in (out1, out2):
        run(["check-allegory", "--max-size", "2", "--seed", "9",
             "--out", str(out), "--format", "json"])
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    assert run(["replay", "--file", str(out1)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_replay_flags_tampered_report(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(["check-allegory", "--max-size", "2", "--seed", "9",
         "--out", str(out), "--format", "json"])
    lines = out.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["verdict"] = "Fails"
    lines[0] = json.dumps(doc, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["replay", "--file", str(out)]) == 1


@pytest.mark.parametrize("flag", [["--out", "r2.jsonl"], ["--format", "json"]])
def test_replay_rejects_report_flags(flag, tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    report.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--file", str(report), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


ONE_OBJECT = {"objects": ["x"], "morphisms": [{"id": "i", "dom": "x", "cod": "x"}],
              "identities": {"x": "i"}, "composition": []}

# argv (with {table} and {report} standing for files made by the test) and
# the message expected on stderr
INPUT_ERRORS = {
    **{f"table-{cmd}": ([cmd, "--category", "table", "--file", "{table}"],
                        f"parse error: --category table supports only validate, not {cmd}")
       for cmd in ("quotient", "check-allegory", "ebullet", "tabulate", "map-counit")},
    "finset-max-size-4": (["validate", "--category", "finset", "--max-size", "4"],
                          "error: --category finset takes --max-size 0..3, not 4"),
    "finset-max-size-negative": (["validate", "--category", "finset", "--max-size", "-1"],
                                 "error: --category finset takes --max-size 0..3, not -1"),
    **{f"{category}-max-size-negative-{cmd}": (
        [cmd, "--category", category, "--max-size", "-1"],
        "error: --max-size takes 0 or more, not -1")
       for category in ("thin", "fincat") for cmd in ("validate", "check-allegory")},
    "bound-negative": (["check-allegory", "--category", "finset", "--max-size", "1",
                        "--bound", "-5"], "error: --bound takes 0 or more, not -5"),
    **{f"table-{case}": (["validate", "--category", "table", "--file", "{table}"],
                         f"parse error: {{table}}{message}")
       for case, message in (("not-utf8", ": 'utf-8' codec can't decode byte 0xff"),
                             ("list", ": not a JSON object"),
                             ("morphism-number",
                              ":morphisms/0: not an object with id, dom and cod"),
                             ("two-item-composite",
                              ":composition/0: not a row [g, f, g after f]"),
                             ("list-label",
                              ":objects/0: ['x'] is not a string or number label"))},
    "table-missing-file": (["validate", "--category", "table", "--file", "{table}.missing"],
                           "parse error: {table}.missing: [Errno 2] No such file"),
    "out-unwritable": (["check-allegory", "--category", "thin", "--max-size", "1",
                        "--out", "{report}.missing/x.jsonl"],
                       "error: cannot write --out {report}.missing/x.jsonl: "
                       "No such file or directory"),
    "replay-missing-file": (["replay", "--file", "{report}.missing"],
                            "parse error: {report}.missing: [Errno 2] No such file"),
    "replay-not-json": (["replay", "--file", "{report}"], "parse error: {report}:2: not JSON"),
    "replay-no-config": (["replay", "--file", "{report}"],
                         "parse error: {report}:1: not a report line with a check and a config"),
    # a config the command line rejects, named at the first line carrying it
    **{f"replay-{case}": (["replay", "--file", "{report}"], f"parse error: {{report}}:2: {message}")
       for case, message in (
           ("max-size-list", "config rejected: argument --max-size: invalid int value: '[1]'"),
           ("unknown-category", "config rejected: argument --category: invalid choice: 'poset'"),
           ("unknown-command", "config command 'replay' is not one of validate, quotient, "
                               "check-allegory, ebullet, tabulate, map-counit"))},
}
REPLAYED = {"command": "check-allegory", "category": "finset", "system": "surj-inj",
            "relation": "simE", "maxSize": 1, "bound": 4096, "seed": 0, "file": None}
REPORTS = {"replay-not-json": '{"check": "a", "config": {}}\n{not json\n',
           "replay-no-config": '{"check": "a", "verdict": "Holds"}\n',
           **{f"replay-{case}": "\n" + 2 * (json.dumps(
               {"check": "a", "config": dict(REPLAYED, **change)}) + "\n")
              for case, change in (("max-size-list", {"maxSize": [1]}),
                                   ("unknown-category", {"category": "poset"}),
                                   ("unknown-command", {"command": "replay"}))}}
TABLES = {"table-not-utf8": b'{"objects": ["\xff"]}',
          "table-list": json.dumps([ONE_OBJECT]).encode(),
          "table-morphism-number": json.dumps(dict(ONE_OBJECT, morphisms=[7])).encode(),
          "table-two-item-composite": json.dumps(
              dict(ONE_OBJECT, composition=[["i", "i"]])).encode(),
          "table-list-label": json.dumps(dict(ONE_OBJECT, objects=[["x"]])).encode()}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2_without_traceback(case, tmp_path):
    table, report = tmp_path / "table.json", tmp_path / "report.jsonl"
    table.write_bytes(TABLES.get(case, json.dumps(ONE_OBJECT).encode()))
    report.write_text(REPORTS.get(case, ""))
    argv, message = INPUT_ERRORS[case]
    paths = {"table": str(table), "report": str(report)}
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(spanalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spanalg.cli"]
                          + [a.format(**paths) for a in argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.startswith(message.format(**paths)), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr

