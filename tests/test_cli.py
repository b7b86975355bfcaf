import json

import pytest

from polylogic.cli import main
from polylogic.corpus import write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d))
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_formula_commands(capsys):
    code, out, _ = run(capsys, "formula", "bd", "1")
    assert code == 0 and out.strip() == "p1 | (p1 -> (p0 | ~p0))"
    code, out, _ = run(capsys, "formula", "print", "p->q->r")
    assert code == 0 and out.strip() == "p -> q -> r"
    code, out, _ = run(capsys, "formula", "parse", "p & q")
    assert code == 0 and out.strip() == "(and p q)"


def test_formula_syntax_error_exits_2(capsys):
    code, _, err = run(capsys, "formula", "print", "p & & q")
    assert code == 2
    assert "error" in err


def test_poset_commands(capsys, corpus_dir):
    chain2 = next(
        p for p in corpus_dir.glob("poset*.json")
        if len(json.loads(p.read_text())["elements"]) == 2
        and json.loads(p.read_text())["covers"]
    )
    code, out, _ = run(capsys, "poset", "depth", str(chain2))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "poset", "upsets", str(chain2))
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_frame_check_exit_codes(capsys, corpus_dir):
    chain2 = next(
        p for p in corpus_dir.glob("poset*.json")
        if json.loads(p.read_text())["covers"]
        and len(json.loads(p.read_text())["elements"]) == 2
    )
    code, out, _ = run(capsys, "frame", "check", "p -> p", str(chain2))
    assert code == 0 and "Valid" in out
    code, out, _ = run(capsys, "frame", "check", "p | ~p", str(chain2))
    assert code == 1 and "Refuted" in out


def test_frame_check_with_valuation(capsys, corpus_dir, tmp_path):
    chain2 = next(
        p for p in corpus_dir.glob("poset*.json")
        if json.loads(p.read_text())["covers"]
        and len(json.loads(p.read_text())["elements"]) == 2
    )
    top = json.loads(chain2.read_text())["covers"][0][1]
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps({"p0": [top]}))
    code, out, _ = run(
        capsys, "frame", "check", "p0 | ~p0", str(chain2), "--valuation", str(vfile)
    )
    assert code == 1 and top in out


def test_complex_commands(capsys, corpus_dir):
    sq = str(corpus_dir / "square.complex.json")
    code, out, _ = run(capsys, "complex", "dim", sq)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "complex", "verify", sq)
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "complex", "star", "ac", sq)
    assert code == 0 and out.split() == ["ac", "abc", "acd"]
    code, out, _ = run(capsys, "complex", "carrier", "1/2,1/4", sq)
    assert code == 0 and out.strip() == "abc"
    code, out, _ = run(capsys, "complex", "faceposet", sq)
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 11


def test_complex_carrier_outside_support_exits_2(capsys, corpus_dir):
    sq = str(corpus_dir / "square.complex.json")
    code, _, err = run(capsys, "complex", "carrier", "5,5", sq)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("coordinate", ["1/0", "x"])
def test_malformed_coordinate_exits_2(capsys, corpus_dir, tmp_path, coordinate):
    data = json.loads((corpus_dir / "square.complex.json").read_text())
    data["vertices"]["a"][0] = coordinate
    bad = tmp_path / "bad.complex.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "complex", "dim", str(bad))
    assert code == 2 and err.startswith("error") and err.count("\n") == 1
    sq = str(corpus_dir / "square.complex.json")
    code, _, err = run(capsys, "complex", "carrier", f"{coordinate},0", sq)
    assert code == 2 and err.startswith("error") and err.count("\n") == 1


@pytest.mark.parametrize("action", ["star", "carrier"])
def test_complex_missing_arg_exits_2_with_usage(capsys, corpus_dir, action):
    with pytest.raises(SystemExit) as exc:
        main(["complex", action, str(corpus_dir / "square.complex.json")])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "poset", "depth", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_nerve_realize_off(capsys, corpus_dir, tmp_path):
    chain2 = next(
        p for p in corpus_dir.glob("poset*.json")
        if json.loads(p.read_text())["covers"]
        and len(json.loads(p.read_text())["elements"]) == 2
    )
    out_file = tmp_path / "out.off"
    code, _, _ = run(
        capsys, "nerve", "realize", str(chain2), "--export", "off", "-o", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().startswith("OFF\n")


def test_counter_exit_codes(capsys):
    code, out, _ = run(capsys, "counter", "p | ~p", "--max-size", "2")
    assert code == 1
    assert json.loads(out)["status"] == "RefutedOnFrame"
    code, out, _ = run(capsys, "counter", "p -> p", "--max-size", "2")
    assert code == 0
    assert json.loads(out)["status"] == "NoCountermodelUpToBound"


def test_counter_expect_flag(capsys):
    code, _, _ = run(capsys, "counter", "p | ~p", "--max-size", "2", "--expect", "refuted")
    assert code == 0
    code, _, _ = run(capsys, "counter", "p | ~p", "--max-size", "2", "--expect", "none")
    assert code == 1


def test_counter_polyhedral(capsys):
    code, out, _ = run(
        capsys, "counter", "~p | ~~p", "--polyhedral", "--depth", "2", "--max-size", "4"
    )
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "RefutedOnPolyhedron"
    assert data["polyhedral"]["dimension"] == 1


def test_suite_json_output(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "suite", "ji", "--corpus", str(corpus_dir), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert {r["subject"] for r in data["reports"]} == {
        "square", "simplex0", "simplex1", "simplex2", "simplex3", "simplex4", "sphere2"
    }


def test_suite_seed_recorded(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "suite", "hneg", "--corpus", str(corpus_dir), "--trials", "14",
        "--seed", "9", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert all(r["seed"] == 9 for r in data["reports"])
