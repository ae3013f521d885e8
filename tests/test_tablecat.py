import json

import pytest

from spanalg import ParseError, load_table_json
from spanalg.tablecat import discrete, make_table, walking_arrow


def test_walking_arrow_composes():
    w = walking_arrow()
    assert w.compose("a", "i0") == "a"
    assert w.compose("i1", "a") == "a"
    assert w.hom(0, 1) == ["a"]


def test_discrete_has_only_identities():
    d = discrete(3)
    assert all(len(d.hom(i, j)) == (1 if i == j else 0)
               for i in range(3) for j in range(3))


def test_missing_identity_rejected():
    with pytest.raises(ParseError):
        make_table([0, 1], [("i0", 0, 0)], {0: "i0"}, {})


def test_unit_law_violation_rejected():
    # composition table contradicts the identity axiom
    with pytest.raises(ParseError):
        make_table(
            [0],
            [("i", 0, 0), ("e", 0, 0)],
            {0: "i"},
            {("i", "e"): "i", ("e", "i"): "e", ("e", "e"): "e"},
        )


def test_missing_composite_rejected():
    with pytest.raises(ParseError):
        make_table(
            [0],
            [("i", 0, 0), ("e", 0, 0)],
            {0: "i"},
            {},
        )


def test_composite_naming_an_unknown_morphism_rejected():
    with pytest.raises(ParseError) as exc:
        make_table([0], [("i", 0, 0)], {0: "i"}, {("i", "zz"): "i"})
    assert "unknown morphism" in str(exc.value)


def _write(tmp_path, data):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(data))
    return str(p)


def test_load_round_trip(tmp_path):
    path = _write(tmp_path, {
        "objects": [0, 1],
        "morphisms": [{"id": "i0", "dom": 0, "cod": 0},
                      {"id": "i1", "dom": 1, "cod": 1},
                      {"id": "a", "dom": 0, "cod": 1}],
        "identities": {"0": "i0", "1": "i1"},
        "composition": [],
    })
    # identities keyed by strings must still resolve against the objects
    with pytest.raises(ParseError):
        load_table_json(path)


def test_load_valid_file(tmp_path):
    path = _write(tmp_path, {
        "objects": ["x"],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x"},
                      {"id": "e", "dom": "x", "cod": "x"}],
        "identities": {"x": "i"},
        "composition": [["e", "e", "i"]],
    })
    cat = load_table_json(path)
    assert cat.compose("e", "e") == "i"
    assert sorted(cat.hom("x", "x")) == ["e", "i"]


def test_load_nonassociative_names_triple(tmp_path):
    path = _write(tmp_path, {
        "objects": ["x"],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x"},
                      {"id": "e", "dom": "x", "cod": "x"},
                      {"id": "f", "dom": "x", "cod": "x"}],
        "identities": {"x": "i"},
        "composition": [["e", "e", "f"], ["e", "f", "i"], ["f", "e", "e"],
                        ["f", "f", "e"]],
    })
    with pytest.raises(ParseError) as exc:
        load_table_json(path)
    assert "assoc" in str(exc.value).lower()


def test_load_bad_json_carries_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError) as exc:
        load_table_json(str(p))
    assert "broken.json" in str(exc.value)
