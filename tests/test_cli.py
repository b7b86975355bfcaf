import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polylogic
from polylogic.cli import main
from polylogic.corpus import write_corpus
from polylogic.errors import MalformedInput
from polylogic.formula import atoms, parse
from polylogic.simplicial import Complex, build_complex


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


@pytest.mark.parametrize("index", ["x", "-1", "1.5", pytest.param("9" * 5000, id="5000-digits"),
                                   pytest.param("1000000000", id="bd-1000000000")])
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
    assert err.endswith(" chains, the enumeration cap\n")


def _simplex_file(path, k):
    """One simplex on the k standard basis vectors of R^k: 2**k - 1 faces from about 2 KB."""
    names = [f"v{i}" for i in range(k)]
    vertices = {v: [str(int(i == j)) for j in range(k)] for i, v in enumerate(names)}
    return _write(path, json.dumps({"vertices": vertices, "maximal": [names]}))


# Small files whose complexes have 2**16 - 1 to 2**20 - 1 faces: a 16-vertex
# simplex took 914 MB to build and an 18-vertex one was killed at 7.7 GB
_AMPLIFIERS = [("complex dim", 16), ("complex dim", 18), ("complex dim", 20),
               ("nerve realize", 16), ("nerve realize", 20)]


def _amplifier_argv(tmp_path, command, k):
    path = (_simplex_file if command == "complex dim" else _chain_file)(tmp_path / "in.json", k)
    return [*command.split(), str(path)]


@pytest.mark.parametrize("command, k", _AMPLIFIERS)
def test_many_faces_are_refused_before_the_complex_is_built(capsys, tmp_path, monkeypatch,
                                                           command, k):
    def built(*args):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(Complex, "__init__", built)
    start = time.perf_counter()
    code, out, err = run(capsys, *_amplifier_argv(tmp_path, command, k))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: more than 32768 faces, the face cap\n")


@pytest.mark.parametrize("command, k", _AMPLIFIERS)
def test_many_faces_are_refused_within_512_mb(tmp_path, command, k):
    # the limit is the child's alone, so a missed refusal fails this test, not the machine
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = str(Path(polylogic.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "polylogic.cli",
                           *_amplifier_argv(tmp_path, command, k)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=limit_memory, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: more than 32768 faces, the face cap\n"


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


@pytest.mark.parametrize("argv", [
    ["frame", "check", "p|~p", "poset.json", "--budget", "-1"],
    ["frame", "check", "p|~p", "poset.json", "--cap", "-3"],
    ["counter", "p|~p", "--budget", "-1"],
    ["suite", "dimbd", "--budget", "-1"],
    ["suite", "ji", "--cap", "-1"],
    ["poset", "upsets", "poset.json", "--cap", "-1"],
], ids=" ".join)
def test_negative_budget_and_cap_exit_2_with_one_line(capsys, argv):
    # the option is refused before any file is read
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: argument --") and err.count("\n") == 1


def test_zero_budget_searches_nothing_and_says_so(capsys):
    code, out, _ = run(capsys, "counter", "p|~p", "--budget", "0")
    assert code == 0 and json.loads(out)["bounds"]["searched_size"] == 0
    code, out, _ = run(capsys, "suite", "dimbd", "--budget", "0")
    assert code == 0 and "exhaustive" not in out and "over budget" in out


def test_suite_nerve_json_gives_no_detail_on_a_passing_check(capsys):
    code, out, _ = run(capsys, "suite", "nerve", "--json")
    checks = [c for r in json.loads(out)["reports"] for c in r["checks"]]
    assert code == 0 and len(checks) == 4 * 87
    assert [c for c in checks if c["ok"] and "detail" in c] == []


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
    "corpus poset with a cycle",
    "suite on a corpus of posets only",
    "suite on a corpus of complexes only",
    "suite on an empty corpus",
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
    elif case == "corpus poset with a cycle":
        _write(corpus / "bad.json", '{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}')
    elif case == "suite on a corpus of posets only":
        _write(corpus / "chain2.json", chain2.read_text())
    elif case == "suite on a corpus of complexes only":
        _write(corpus / "point.complex.json", '{"vertices": {"a": []}, "maximal": [["a"]]}')
    argv = {
        "poset depth of a directory": ["poset", "depth", str(tmp_path)],
        "nerve realize into a directory": ["nerve", "realize", str(chain2), "-o", str(tmp_path)],
        "corpus onto a regular file": ["corpus", str(chain2)],
        "suite with a regular file as corpus": ["suite", "dimbd", "--corpus", str(chain2)],
        "poset file not UTF-8": ["poset", "depth", str(latin1)],
        "corpus complex not UTF-8": ["suite", "dimbd", "--corpus", str(corpus)],
        "corpus complex not JSON": ["suite", "dimbd", "--corpus", str(corpus)],
        "corpus poset with a cycle": ["suite", "esakia", "--corpus", str(corpus)],
        "suite on a corpus of posets only": ["suite", "dimbd", "--corpus", str(corpus)],
        "suite on a corpus of complexes only": ["suite", "esakia", "--corpus", str(corpus)],
        "suite on an empty corpus": ["suite", "hneg", "--corpus", str(corpus)],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    if case.startswith("suite on"):  # a corpus with nothing to check is named
        kind = "poset" if argv[1] == "esakia" else "complex"
        assert f"{corpus} holds no {kind} for suite {argv[1]}" in err
    else:
        assert "bad." in err or not any(corpus.iterdir())  # a bad corpus file is named


DEEP_JSON = {"array-100000": "[" * 100_000 + "]" * 100_000,
             "object-50000": '{"a": ' * 50_000 + "1" + "}" * 50_000}


@pytest.mark.parametrize("deep", sorted(DEEP_JSON))
@pytest.mark.parametrize("entry", ["poset depth", "complex build", "frame check --valuation",
                                   "suite esakia --corpus"])
def test_json_nested_too_deep_exits_2_with_one_line(capsys, tmp_path, entry, deep):
    chain2 = _write(tmp_path / "chain2.json", '{"elements": ["a", "b"], "covers": [["a", "b"]]}')
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    f = _write(corpus / "deep.json", DEEP_JSON[deep])
    argv = {
        "poset depth": ["poset", "depth", str(f)],
        "complex build": ["complex", "build", str(f)],
        "frame check --valuation": ["frame", "check", "p", str(chain2), "--valuation", str(f)],
        "suite esakia --corpus": ["suite", "esakia", "--corpus", str(corpus)],
    }[entry]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv, want", [
    pytest.param(["--json", "suite", "ji", "--corpus", "{dir}"], (0, "ok", True),
                 id="before-the-subcommand"),
    pytest.param(["suite", "ji", "--corpus", "{dir}", "--json"], (0, "ok", True),
                 id="after-the-subcommand"),
    pytest.param(["--json", "frame", "check", "p|~p", "{dir}/poset002.json"],
                 (1, "status", "Refuted"), id="frame-check-before"),
    pytest.param(["frame", "check", "p|~p", "{dir}/poset002.json", "--json"],
                 (1, "status", "Refuted"), id="frame-check-after"),
    pytest.param(["--json", "complex", "verify", "{dir}/square.complex.json"], (0, "ok", True),
                 id="complex-verify-before"),
    pytest.param(["complex", "verify", "{dir}/square.complex.json", "--json"], (0, "ok", True),
                 id="complex-verify-after"),
])
def test_suite_json_flag_in_either_position(capsys, corpus_dir, argv, want):
    code, out, _ = run(capsys, *(a.format(dir=corpus_dir) for a in argv))
    exit_code, key, value = want
    assert code == exit_code and json.loads(out)[key] == value


@pytest.mark.parametrize("command", ["esakia", "nerve"])
def test_suites_on_a_poset_whose_element_names_hold_a_comma(capsys, tmp_path, command):
    # the spectrum names filters by JSON lists, so {a, b} and {"a,b"} differ;
    # a chain's name joins its element names with ",", so nerve refuses "a,b"
    _write(tmp_path / "comma.json",
           '{"elements": ["a", "b", "a,b"], "covers": [["a", "b"]]}')
    code, out, err = run(capsys, "suite", command, "--corpus", str(tmp_path))
    if command == "esakia":
        assert code == 0 and out.endswith("SUITE PASS\n")
    else:
        assert code == 2 and err.count("\n") == 1 and "'a,b'" in err


def test_complex_refuses_a_vertex_id_holding_a_comma(capsys, tmp_path):
    # a simplex name joins vertex ids with ",", so "a,b" could not be named back
    path = _write(tmp_path / "comma.complex.json",
                  '{"vertices": {"a,b": ["0"], "c": ["1"]}, "maximal": [["a,b", "c"]]}')
    for action in (["build"], ["star", "a,b"]):
        code, _, err = run(capsys, "complex", *action, str(path))
        assert code == 2 and err.count("\n") == 1 and "'a,b'" in err


def test_complex_naming_an_unknown_vertex_is_malformed_input(capsys, tmp_path):
    with pytest.raises(MalformedInput):
        build_complex({"a": ["0"], "b": ["1"]}, [["a", "c"]])
    path = _write(tmp_path / "unknown.complex.json",
                  '{"vertices": {"a": ["0"], "b": ["1"]}, "maximal": [["a", "c"]]}')
    code, out, err = run(capsys, "complex", "build", str(path))
    assert (code, out, err) == (2, "", "error: simplex references unknown vertex 'c'\n")


def test_complex_text_quotes_a_simplex_name_that_holds_a_space(capsys, tmp_path):
    # "a b", "c" and "a b,c" are three simplices, not the ids a, b, c and a b,c
    path = _write(tmp_path / "space.complex.json",
                  '{"vertices": {"a b": ["0"], "c": ["1"]}, "maximal": [["a b", "c"]]}')
    code, out, _ = run(capsys, "complex", "build", str(path))
    assert code == 0 and out == '3 simplices: "a b" c "a b,c"\nvertices: "a b"=(0) c=(1)\n'
    code, out, _ = run(capsys, "complex", "star", "c", str(path))
    assert code == 0 and out == 'c "a b,c"\n'
    crossing = _write(tmp_path / "crossing.complex.json", json.dumps({
        "vertices": {"a b": [0, 0], "c": [2, 2], "d": [0, 2], 'e"|': [2, 0], "": [5, 5]},
        "maximal": [["a b", "c"], ["d", 'e"|'], [""]]}))
    code, out, _ = run(capsys, "complex", "build", str(crossing))
    assert code == 0 and out == (
        '7 simplices: "" "a b" c d "e\\"|" "a b,c" "d,e\\"|"\n'
        'vertices: ""=(5,5) "a b"=(0,0) c=(2,2) d=(0,2) "e\\"|"=(2,0)\n')
    code, out, _ = run(capsys, "complex", "verify", str(crossing))
    assert code == 1 and out == 'violations: "a b,c"|"d,e\\"|"\n'
    code, out, _ = run(capsys, "complex", "verify", "--json", str(crossing))
    assert json.loads(out)["violations"] == [["a b,c", 'd,e"|']]


def test_set_text_quotes_a_name_that_holds_a_comma(capsys, tmp_path):
    # {a, b} and {"a,b"} are different up-sets and print as different lines
    path = _write(tmp_path / "comma.json",
                  '{"elements": ["a", "b", "a,b"], "covers": [["a", "b"]]}')
    code, out, _ = run(capsys, "poset", "upsets", str(path))
    lines = out.splitlines()
    assert code == 0 and len(set(lines)) == len(lines) == 6
    assert {"{}", "{a,b}", '{"a,b"}', '{a,b,"a,b"}'} <= set(lines)
    valuation = _write(tmp_path / "v.json", '{"p": ["a,b"]}')
    code, out, _ = run(capsys, "frame", "check", "p", str(path), "--valuation", str(valuation))
    assert code == 1 and out == 'value: {"a,b"}\n'
    top = _write(tmp_path / "top.json", '{"elements": ["x", "{y}"], "covers": [["x", "{y}"]]}')
    code, out, _ = run(capsys, "frame", "check", "p | ~p", str(top))
    assert code == 1 and out == 'Refuted with p={"{y}"}\n'


def test_suite_reads_the_corpus_posets(capsys, corpus_dir, tmp_path):
    # the written corpus names each poset by its file stem, as the bundled run does
    bundled = run(capsys, "--json", "suite", "esakia")
    assert bundled[0] == 0
    assert run(capsys, "--json", "suite", "esakia", "--corpus", str(corpus_dir)) == bundled
    _write(tmp_path / "point.json", '{"elements": ["a"], "covers": []}')
    code, out, _ = run(capsys, "--json", "suite", "nerve", "--corpus", str(tmp_path))
    assert code == 0 and [r["subject"] for r in json.loads(out)["reports"]] == ["point"]


def test_suite_nerve_keeps_to_the_cap(capsys):
    # the bundled 5-chain has 2**5 - 1 = 31 chains, the most of any corpus poset
    code, out, err = run(capsys, "suite", "nerve", "--cap", "30")
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "suite", "nerve", "--cap", "31")
    assert code == 0 and out.endswith("SUITE PASS\n")


@pytest.mark.parametrize("command", [["poset", "upsets"], ["frame", "check", "p"]])
def test_the_empty_poset_charges_its_one_up_set_to_the_cap(capsys, tmp_path, command):
    empty = str(_write(tmp_path / "empty.json", '{"elements": [], "covers": []}'))
    one = str(_write(tmp_path / "one.json", '{"elements": ["a"], "covers": []}'))
    assert run(capsys, *command, empty, "--cap", "0") == (
        2, "", "error: up-set enumeration cap exceeded after 1 sets\n")
    assert run(capsys, *command, empty, "--cap", "1")[0] == 0
    assert run(capsys, *command, one, "--cap", "1") == (
        2, "", "error: up-set enumeration cap exceeded after 2 sets\n")


def test_suite_esakia_on_a_14_antichain(capsys, tmp_path):
    names = json.dumps([f"a{i}" for i in range(14)])
    _write(tmp_path / "antichain14.json", f'{{"elements": {names}, "covers": []}}')
    code, out, _ = run(capsys, "suite", "esakia", "--corpus", str(tmp_path))
    assert code == 0 and out.endswith("SUITE PASS\n") and "|A|=14" in out


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


# What a fresh interpreter loads: the package nothing, the loaders of the
# benchmark's set-up no dataclasses and no algebra, a formula command no algebra.
_LOADERS = """
from polylogic.formula import parse
from polylogic.poset import poset_from_json
from polylogic.simplicial import complex_from_json
parse("p -> q | ~r")
poset_from_json({"elements": ["a", "b"], "covers": [["a", "b"]]})
complex_from_json({"vertices": {"a": ["0"], "b": ["1/2"]}, "maximal": [["a", "b"]]})
"""
_UNUSED = ("polylogic.algebra", "polylogic.nerve", "polylogic.pipeline")


@pytest.mark.parametrize("probe, unloaded", [
    pytest.param("import polylogic", ("polylogic.",), id="package"),
    pytest.param(_LOADERS, ("dataclasses", "inspect") + _UNUSED, id="loaders"),
    pytest.param("from polylogic import cli; cli.main(['formula', 'print', 'p'])", _UNUSED,
                 id="cli-formula"),
])
def test_a_cold_start_loads_only_what_it_uses(probe, unloaded):
    src = str(Path(polylogic.__file__).resolve().parents[1])
    script = (f"import sys\nbefore = set(sys.modules)\n{probe}\n"
              f"print(sorted(m for m in set(sys.modules) - before if m.startswith({unloaded!r})))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_oracles_leave_numpy_out():
    paths = [str(Path(polylogic.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    probe = "import sys, oracles; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, check=True)
    assert done.stdout.strip() == "False"


def test_a_closed_output_pipe_exits_0_quietly(tmp_path):
    # 2**16 up-set lines overflow the pipe buffer, so a write after the
    # reader has gone fails
    path = tmp_path / "antichain16.json"
    _write(path, json.dumps({"elements": [f"a{i}" for i in range(16)], "covers": []}))
    src = str(Path(polylogic.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "polylogic.cli", "poset", "upsets", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.readline() == "{}\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, "")


# The CLI property gate: every subcommand and option, with bound values, on
# small generated files whose names may be empty or hold ,{}"| spaces or
# non-ASCII text. File arguments are placeholders until the files exist.
_NAMES = st.sampled_from("abcde") | st.text(st.sampled_from('ab,{}"| é∧'), max_size=3)
_FORMULAS = st.sampled_from(["p", "p | ~p", "p -> q", "(p -> q) | (q -> p)", "~~p -> p",
                             "p1 | (p1 -> (p0 | ~p0))", "true", "false", "", "p &", "a | b"])
_COUNTS = {"--budget": ["0", "1", "10", "1000", "-1"], "--cap": ["0", "1", "3", "30", "x"],
           "--depth": ["0", "1", "2", "-1"], "--max-size": ["0", "1", "2", "3"],
           "--seed": ["0", "7"], "--trials": ["1", "2", "0"]}


@st.composite
def _poset_docs(draw):
    elements = draw(st.lists(_NAMES, max_size=4, unique=True))
    pairs = [(a, b) for i, a in enumerate(elements) for b in elements[i + 1:]]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    covers += draw(st.sampled_from([[], [], [("?", "a")], [(b, a) for a, b in covers[:1]]]))
    return {"elements": draw(st.permutations(elements)), "covers": covers}


@st.composite
def _complex_docs(draw):
    ids = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    coordinate = st.sampled_from(["0", "1", "-1", "1/2", "2"])
    dim = draw(st.integers(0, 3))
    vertices = {v: draw(st.lists(coordinate, min_size=dim, max_size=dim)) for v in ids}
    maximal = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True),
                            max_size=3))
    maximal += draw(st.sampled_from([[], [], [["?"]], maximal[:1]]))
    return {"vertices": vertices, "maximal": maximal}


@st.composite
def _cli_cases(draw):
    """(poset, complex, valuation, argv, deep) with POSET, COMPLEX, VALUATION,
    CORPUS and OUT in argv standing for the files and directories written from
    them, and deep None or the file to overwrite with JSON nested too deep."""
    poset, cx = draw(_poset_docs()), draw(_complex_docs())
    subset = st.lists(st.sampled_from(poset["elements"] + ["?"]), max_size=3, unique=True)
    valuation = draw(st.dictionaries(st.sampled_from(["p", "q", "p0"]), subset, max_size=2))
    command = draw(st.sampled_from(["frame", "complex", "suite", "nerve", "poset",
                                    "counter", "corpus", "formula"]))
    options = {
        "formula": [],
        "poset": ["--cap"],
        "frame": ["--json", "--budget", "--cap", "--valuation"],
        "complex": ["--json"],
        "nerve": ["--export", "-o"],
        "counter": ["--depth", "--max-size", "--polyhedral", "--expect", "--budget"],
        "suite": ["--json", "--budget", "--cap", "--seed", "--trials"],
        "corpus": [],
    }[command]
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    if command == "formula":
        action = draw(st.sampled_from(["parse", "print", "bd"]))
        indices = st.sampled_from(["0", "1", "3", "-1", "x", "1000000000"])
        argv += [action, draw(indices if action == "bd" else _FORMULAS)]
    elif command == "poset":
        argv += [draw(st.sampled_from(["depth", "upsets"])), "POSET"]
    elif command == "frame":
        argv += ["check", draw(_FORMULAS), "POSET"]
    elif command == "complex":
        action = draw(st.sampled_from(["build", "verify", "dim", "faceposet", "star", "carrier"]))
        argv.append(action)
        if action == "star" and draw(st.booleans()):
            argv.append(draw(st.sampled_from(list(cx["vertices"])) | _NAMES))
        elif action == "carrier" and draw(st.booleans()):
            argv.append(draw(st.sampled_from(["0", "0,0", "1/2,1/2", "1/3,1/3", "x", ""])))
        argv.append("COMPLEX")
    elif command == "nerve":
        argv += ["realize", "POSET"]
    elif command == "counter":
        argv.append(draw(_FORMULAS))
    elif command == "suite":
        argv += [draw(st.sampled_from(["esakia", "dimbd", "ji", "hneg", "nerve"])), "--corpus",
                 "CORPUS"]
    else:
        argv.append(draw(st.sampled_from(["OUT", "POSET"])))
    for option in draw(st.lists(st.sampled_from(options), unique=True)) if options else []:
        values = {"--valuation": ["VALUATION"], "--export": ["off", "json"], "-o": ["OUT"],
                  "--expect": ["refuted", "none"]}.get(option, _COUNTS.get(option))
        argv += [option] + ([draw(st.sampled_from(values))] if values else [])
    deep = draw(st.sampled_from([None] * 6 + ["POSET", "COMPLEX", "VALUATION"]))
    return poset, cx, valuation, argv, deep


def _run_main(argv):
    """(exit code, stdout, stderr) of main(argv), or None after an argparse
    usage error, which prints its usage lines too."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2 and "usage" in err.getvalue()
            return None
    return code, out.getvalue(), err.getvalue()


# (command, action, exit code, text output) -> the --json output of the same
# input, over every case drawn in the process: two cases that print one text
# must print one JSON document, or the text hides a difference
_JSON_OF_TEXT: dict = {}


@settings(max_examples=150, deadline=None)
@given(_cli_cases())
def test_every_cli_input_exits_0_1_or_2(case):
    poset, cx, valuation, argv, deep = case
    with tempfile.TemporaryDirectory() as d:
        corpus = os.path.join(d, "corpus")
        os.mkdir(corpus)
        paths = {"POSET": os.path.join(corpus, "frame.json"),
                 "COMPLEX": os.path.join(corpus, "k.complex.json"),
                 "VALUATION": os.path.join(d, "v.json"), "CORPUS": corpus,
                 "OUT": os.path.join(d, "out")}
        for key, doc in (("POSET", poset), ("COMPLEX", cx), ("VALUATION", valuation)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, ensure_ascii=False)
        if deep:
            with open(paths[deep], "w", encoding="utf-8") as fh:
                fh.write(DEEP_JSON["array-100000"])
        argv = [paths.get(a, a) for a in argv]
        ran = _run_main(argv)
        if ran is None:
            return
        code, out, err = ran
        plain = [a for a in argv if a != "--json"]
        if code != 2 and plain[0] in ("frame", "complex", "suite"):  # the forms with --json
            text = ran if len(plain) == len(argv) else _run_main(plain)
            as_json = ran if len(plain) < len(argv) else _run_main(["--json", *plain])
            assert text[0] == as_json[0] == code and text[2] == as_json[2] == ""
            if text[1] != as_json[1]:
                key = (plain[0], plain[1], code, text[1])
                assert _JSON_OF_TEXT.setdefault(key, as_json[1]) == as_json[1]
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
