import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylogic
from polylogic.cli import main
from polylogic.corpus import write_corpus
from polylogic.formula import atoms, parse


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


@pytest.mark.parametrize("index", ["x", "-1", "1.5", pytest.param("9" * 5000, id="5000-digits")])
def test_formula_bd_bad_index_exits_2_with_one_line(capsys, index):
    code, out, err = run(capsys, "formula", "bd", index)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("coordinate", ["1/0", "x", "1e100000"])
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


@pytest.mark.parametrize("text", [
    '{"elements": ["a", "b", "a"], "covers": [["a", "b"]]}',  # duplicate element
    '{"elements": ["a", "b"]}',  # no covers
    '{"elements": ["a", "b"], "covers": [["a", "b"]]',  # not JSON
    '{"elements": ["a", "b"], "covers": [[["a"], "b"]]}',  # cover not a pair of names
])
def test_bad_poset_file_exits_2_with_one_line(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["poset", "depth", str(bad)], ["frame", "check", "p | ~p", str(bad)]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error") and err.count("\n") == 1


def _write(path, text):
    path.write_text(text)
    return path


def _chain_file(path, n):
    names = [f"e{i}" for i in range(n)]
    return _write(path, json.dumps({"elements": names, "covers": list(zip(names, names[1:]))}))


def test_bad_complex_and_valuation_files_exit_2(capsys, corpus_dir, tmp_path):
    bad = _write(tmp_path / "bad.json", "{")
    chain2 = _write(tmp_path / "chain2.json", '{"elements": ["a", "b"], "covers": [["a", "b"]]}')
    complexes = [
        bad,
        chain2,  # a poset file
        _write(tmp_path / "no_maximal.json", '{"vertices": {"a": [0]}}'),
        _write(tmp_path / "list.json", "[1]"),
        _write(tmp_path / "coords.json", '{"vertices": {"a": 5}, "maximal": [["a"]]}'),
    ]
    for cfile in complexes:
        code, _, err = run(capsys, "complex", "dim", str(cfile))
        assert code == 2 and err.startswith("error") and err.count("\n") == 1
    not_up = _write(tmp_path / "v.json", '{"p": ["a"]}')
    as_list = _write(tmp_path / "list_v.json", '["a"]')
    for vfile in (bad, not_up, as_list):
        code, _, err = run(capsys, "frame", "check", "p", str(chain2), "--valuation", str(vfile))
        assert code == 2 and err.startswith("error") and err.count("\n") == 1


REFUTED = "Refuted with p={}"


# These inputs are nested deeper than Python's recursion limit. The test
# keeps the name and ids it had when they were refused with exit 2; it now
# asserts their answers.
@pytest.mark.parametrize("argv, want_code, want", [
    pytest.param(["formula", "bd", "2000"], 0, None, id="bd-2000"),
    pytest.param(["formula", "print", "~" * 3000 + "p"], 0, "~" * 3000 + "p", id="3000-negations"),
    pytest.param(["formula", "print", "(" * 3000 + "p" + ")" * 3000], 0, "p", id="3000-parentheses"),
    pytest.param(["frame", "check", "(" * 3000 + "p" + ")" * 3000], 1, REFUTED,
                 id="frame-3000-parentheses"),
    pytest.param(["frame", "check", " & ".join(["p"] * 3000)], 1, REFUTED, id="frame-3000-conjuncts"),
])
def test_deep_nesting_exits_2_with_one_line(capsys, tmp_path, argv, want_code, want):
    if argv[0] == "frame":
        argv = argv + [str(_write(tmp_path / "one.json", '{"elements": ["a"], "covers": []}'))]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (want_code, "")
    if want is not None:
        assert out == want + "\n"
        return
    text = out.strip()  # bd 2000 prints back to itself
    assert run(capsys, "formula", "print", text) == (0, out, "")
    assert atoms(parse(text)) == [f"p{k}" for k in range(2000, -1, -1)]


@pytest.mark.parametrize("n", [21, 1100])
def test_nerve_realize_refuses_over_2_20_chains(capsys, tmp_path, n):
    # a 21-chain has 2**21 - 1 nonempty chains, a 1100-chain about 2**1100
    code, out, err = run(capsys, "nerve", "realize", str(_chain_file(tmp_path / "c.json", n)))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_frame_check_answers_64_and_65_elements(capsys, tmp_path):
    for n in (64, 65):
        code, out, _ = run(capsys, "frame", "check", "p | ~p", str(_chain_file(tmp_path / "c.json", n)))
        assert code == 1 and out.strip() == f"Refuted with p={{e{n - 1}}}"


_names = st.sampled_from(["a", "b", "p", "elements", "covers", "vertices", "maximal"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | _names,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_names | st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_malformed_files_exit_0_1_or_2(value):
    # whatever JSON a file holds, the CLI answers or exits 2; it never
    # lets an exception escape
    with tempfile.TemporaryDirectory() as d:
        data = os.path.join(d, "data.json")
        chain2 = os.path.join(d, "chain2.json")
        with open(data, "w") as fh:
            json.dump(value, fh)
        with open(chain2, "w") as fh:
            fh.write('{"elements": ["a", "b"], "covers": [["a", "b"]]}')
        for argv in (
            ["poset", "depth", data],
            ["complex", "dim", data],
            ["frame", "check", "p", chain2, "--valuation", data],
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)


def test_counter_reports_the_size_it_finished(capsys):
    code, out, _ = run(capsys, "counter", "p->(q->(r->(s->(t->p))))", "--max-size", "6")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "NoCountermodelUpToBound"
    assert data["bounds"]["searched_size"] == 5


@pytest.mark.parametrize("argv", [
    ["counter", "p|~p", "--max-size", "-3"],
    ["counter", "p|~p", "--depth", "-1"],
    ["counter", "p|~p", "--polyhedral", "--depth", "-2"],
    ["counter", "p|~p", "--max-size", "five"],
    ["suite", "hneg", "--trials", "-5"],
    ["suite", "hneg", "--trials", "0"],
], ids=lambda argv: " ".join(argv[2:]))
def test_negative_bounds_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: argument --") and err.count("\n") == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "poset", "depth", "/nonexistent.json")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("case", [
    "poset depth of a directory",
    "nerve realize into a directory",
    "corpus onto a regular file",
    "suite with a regular file as corpus",
    "poset file not UTF-8",
    "corpus complex not UTF-8",
    "corpus complex not JSON",
])
def test_os_encoding_and_corpus_errors_exit_2_with_one_line(capsys, tmp_path, case):
    chain2 = _write(tmp_path / "chain2.json", '{"elements": ["a", "b"], "covers": [["a", "b"]]}')
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    if case == "corpus complex not UTF-8":
        (corpus / "bad.complex.json").write_bytes(b'{"vertices": {"\xe9": [0]}}')
    elif case == "corpus complex not JSON":
        _write(corpus / "bad.complex.json", "{")
    argv = {
        "poset depth of a directory": ["poset", "depth", str(tmp_path)],
        "nerve realize into a directory": ["nerve", "realize", str(chain2), "-o", str(tmp_path)],
        "corpus onto a regular file": ["corpus", str(chain2)],
        "suite with a regular file as corpus": ["suite", "dimbd", "--corpus", str(chain2)],
        "poset file not UTF-8": ["poset", "depth", str(latin1)],
        "corpus complex not UTF-8": ["suite", "dimbd", "--corpus", str(corpus)],
        "corpus complex not JSON": ["suite", "dimbd", "--corpus", str(corpus)],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_write_corpus_reproduces_the_checked_in_corpus(corpus_dir):
    shipped = Path(__file__).resolve().parents[1] / "corpus"
    names = sorted(p.name for p in shipped.iterdir())
    assert len(names) == 94 and names == sorted(p.name for p in corpus_dir.iterdir())
    for name in names:
        assert (corpus_dir / name).read_bytes() == (shipped / name).read_bytes(), name


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


@pytest.mark.parametrize("argv", [
    pytest.param(["--json", "suite", "ji"], id="before-the-subcommand"),
    pytest.param(["suite", "ji", "--json"], id="after-the-subcommand"),
])
def test_suite_json_flag_in_either_position(capsys, corpus_dir, argv):
    code, out, _ = run(capsys, *argv, "--corpus", str(corpus_dir))
    assert code == 0 and json.loads(out)["ok"] is True


def test_suite_seed_recorded(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "suite", "hneg", "--corpus", str(corpus_dir), "--trials", "14",
        "--seed", "9", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert all(r["seed"] == 9 for r in data["reports"])


def test_import_leaves_numpy_out():
    src = str(Path(polylogic.__file__).resolve().parents[1])
    probe = "import sys, polylogic, polylogic.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"
