"""Code-spec files and the command-line surface."""

import json

import pytest

from groupcodes import catalog, specfile
from groupcodes.cli import main
from groupcodes.codes import code_equal, dual


@pytest.fixture()
def rate13_file(tmp_path):
    p = tmp_path / "rate13.code"
    p.write_text(specfile.dumps_convolutional(catalog.rate_one_third_z4(), 12, margin=3))
    return str(p)


@pytest.fixture()
def pairs_file(tmp_path):
    p = tmp_path / "pairs.code"
    p.write_text(specfile.dumps_convolutional(catalog.periodic_pairs_z4(), 8, margin=2))
    return str(p)


def test_shipped_sample_files_load():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "codes"
    orders = {"rate13.code": 4 ** 10, "repetition.code": 4, "pairs.code": 8}
    for name, order in orders.items():
        loaded = specfile.load(root / name)
        assert loaded.code.order() == order


def test_explicit_roundtrip(tmp_path):
    code = catalog.periodic_pairs_window().code
    text = specfile.dumps_explicit(code, name="pairs")
    loaded = specfile.loads(text)
    assert code_equal(loaded.code, code)
    assert loaded.kind == "explicit"


def test_convolutional_load(rate13_file):
    loaded = specfile.load(rate13_file)
    assert loaded.kind == "convolutional"
    assert loaded.margin == 3
    assert loaded.code.order() == 4 ** 10


def test_entries_reduced_on_load():
    text = json.dumps({"format_version": 1, "kind": "explicit", "modulus": 4,
                       "axis": 2, "widths": [1, 1], "generators": [[5, -3]]})
    loaded = specfile.loads(text)
    assert loaded.code.contains([1, 1])


PAST_INDEX = 2 ** 64 + 13  # larger than any list index


def test_malformed_documents():
    for doc in [
        "{nope",
        json.dumps({"kind": "explicit"}),
        json.dumps({"kind": "weird", "modulus": 4}),
        json.dumps({"kind": "explicit", "modulus": 4, "axis": 2,
                    "generators": [[1, 2, 3]]}),
        json.dumps({"format_version": 7, "kind": "explicit", "modulus": 4, "axis": 1}),
        json.dumps({"kind": "explicit", "modulus": 4, "axis": 1, "name": ["x"]}),
        json.dumps({"kind": "convolutional", "modulus": 4, "width": 1,
                    "generators": [[[1], [1]]], "window": 6, "margin": -1}),
        # sizes past the index range fail before anything is allocated
        json.dumps({"kind": "convolutional", "modulus": 4, "width": 1,
                    "generators": [[[1], [1]]], "window": PAST_INDEX}),
        json.dumps({"kind": "convolutional", "modulus": 4, "width": PAST_INDEX,
                    "window": 6}),
        json.dumps({"kind": "convolutional", "modulus": 4, "width": 2 ** 62,
                    "window": 4}),
        json.dumps({"kind": "explicit", "modulus": 4, "axis": PAST_INDEX}),
        json.dumps({"kind": "explicit", "modulus": 4, "axis": PAST_INDEX,
                    "widths": [1]}),
        json.dumps({"kind": "explicit", "modulus": 4, "axis": 2,
                    "widths": [1, PAST_INDEX]}),
    ]:
        with pytest.raises(specfile.SpecFileError):
            specfile.loads(doc)


def test_cli_analyze_text(rate13_file, capsys):
    assert main(["analyze", rate13_file, "--cut", "6"]) == 0
    out = capsys.readouterr().out
    assert "state at cut 6: Z2 x Z4 (order 8)" in out
    assert "controller memory (margin 3): 2" in out
    assert "observer memory   (margin 3): 1" in out


def test_cli_analyze_json_roundtrips(rate13_file, capsys):
    assert main(["analyze", rate13_file, "--json"]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["state"] == [2, 4]
    assert report["chains_at_cut"]["syndrome_group"] == [4, 4]
    # determinism + roundtrip: re-dump equals original serialization
    assert json.dumps(report, indent=2) + "\n" == text
    main(["analyze", rate13_file, "--json"])
    assert capsys.readouterr().out == text


def test_cli_dual_roundtrip(rate13_file, tmp_path, capsys):
    out = tmp_path / "dual.code"
    assert main(["dual", rate13_file, "--out", str(out)]) == 0
    loaded = specfile.load(out)
    orig = specfile.load(rate13_file)
    assert code_equal(loaded.code, dual(orig.code))
    assert main(["analyze", str(out), "--cut", "6", "--margin", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["state"] == [2, 4]
    assert report["controller_memory"] == 1 and report["observer_memory"] == 2


def test_cli_encode_and_syndrome(rate13_file, tmp_path, capsys):
    assert main(["encode", rate13_file, "--random", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    word = payload["codeword"]
    wf = tmp_path / "word.json"
    wf.write_text(json.dumps(word))
    assert main(["syndrome", rate13_file, "--word", str(wf)]) == 0
    assert capsys.readouterr().out.strip().endswith("MEMBER")

    bad = list(word)
    bad[20] = (bad[20] + 1) % 4
    bf = tmp_path / "bad.json"
    bf.write_text(json.dumps(bad))
    assert main(["syndrome", rate13_file, "--word", str(bf)]) == 0
    assert capsys.readouterr().out.strip().endswith("NOT A MEMBER")


def test_cli_encode_deterministic(pairs_file, capsys):
    assert main(["encode", pairs_file, "--random", "42", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["encode", pairs_file, "--random", "42", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_duality(capsys):
    assert main(["verify-duality", "--seed", "2", "--trials", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["checks"]["granule-duality"] == 3


def test_cli_oracle(pairs_file, capsys):
    assert main(["oracle", pairs_file, "--quantity", "order"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 8
    assert main(["oracle", pairs_file, "--quantity", "state-count", "--cut", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 8
    assert main(["oracle", pairs_file, "--quantity", "observer-granule",
                 "--at", "3", "--level", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == [2]


def test_cli_exit_codes(tmp_path, capsys, rate13_file, pairs_file):
    broken = tmp_path / "broken.code"
    broken.write_text("{not json")
    assert main(["analyze", str(broken)]) == 2
    assert main(["analyze", str(tmp_path / "missing.code")]) == 2
    # a directory where a file belongs is a usage error, not a traceback
    for argv in (["analyze", str(tmp_path)],
                 ["syndrome", rate13_file, "--word", str(tmp_path)],
                 ["encode", rate13_file, "--inputs", str(tmp_path)],
                 ["dual", rate13_file, "--out", str(tmp_path)]):
        assert main(argv) == 2, argv
    # a negative or too-small count is a usage error that names its flag
    oracle = ["oracle", pairs_file, "--quantity"]
    for argv, flag in (
            (oracle + ["controller-granule", "--at", "0", "--level", "-1"], "--level"),
            (oracle + ["controller-granule", "--at", "0", "--level", "-3"], "--level"),
            (oracle + ["observer-granule", "--at", "7", "--level", "-1"], "--level"),
            (oracle + ["observer-granule", "--at", "-1", "--level", "1"], "--at"),
            (oracle + ["observer-granule", "--at", "0", "--level", str(PAST_INDEX)],
             "--level"),
            (["verify-duality", "--trials", "-5"], "--trials"),
            (["verify-duality", "--max-axis", "1"], "--max-axis"),
            (["verify-duality", "--max-width", "0"], "--max-width"),
            # sizes past an index are refused before a code is drawn
            (["verify-duality", "--max-axis", str(2**64 + 13)], "--max-axis"),
            (["verify-duality", "--max-width", str(2**64 + 13)], "--max-width"),
            (["verify-duality", "--max-axis", str(2**32), "--max-width", str(2**32)],
             "--max-width"),
            (["verify-duality", "--modulus-set", "2,,3"], "--modulus-set"),
            (oracle + ["order", "--cap", "-1"], "--cap"),
            (oracle + ["order", "--cap", "0"], "--cap"),
            (oracle + ["state-count", "--cut", "99"], "--cut"),
            (oracle + ["state-count", "--cut", "9"], "--cut"),
            (oracle + ["state-count", "--cut", "-1"], "--cut")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == "", argv
    for cut in ("0", "8"):  # the cuts at the ends of the axis stay accepted
        assert main(oracle + ["state-count", "--cut", cut]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1
    big = tmp_path / "big.code"
    big.write_text(specfile.dumps_convolutional(catalog.rate_one_third_z4(), 12))
    assert main(["oracle", str(big), "--quantity", "order", "--cap", "100"]) == 3
    # --cap bounds the window enumeration too: 4^4 window words exceed 100
    small = tmp_path / "small.code"
    small.write_text(json.dumps({"kind": "explicit", "modulus": 4, "axis": 4,
                                 "generators": [[1, 1, 1, 1]]}))
    assert main(["oracle", str(small), "--quantity", "observer-granule",
                 "--at", "0", "--level", "3", "--cap", "100"]) == 3
    capsys.readouterr()


def test_json_booleans_are_not_ints(tmp_path, capsys, rate13_file):
    """JSON true/false load as Python bools, a subclass of int: every field
    that expects an int rejects them, naming the field, with exit 2."""
    conv = {"format_version": 1, "kind": "convolutional", "modulus": 4,
            "width": 1, "generators": [[[1], [1]]], "window": 6}
    expl = {"format_version": 1, "kind": "explicit", "modulus": 4,
            "axis": 2, "widths": [1, 1], "generators": [[1, 1]]}
    cases = [
        ({**conv, "window": True}, "window"),
        ({**conv, "width": True}, "width"),
        ({**conv, "generators": [[[True], [1]]]}, "generators"),
        ({**conv, "patterns": [[[False]]]}, "patterns"),
        ({**conv, "margin": True}, "margin"),
        ({**conv, "format_version": True}, "format_version"),
        ({**conv, "modulus": True}, "modulus"),
        ({**expl, "axis": True, "widths": [1]}, "axis"),
        ({**expl, "widths": [True, 1]}, "widths"),
        ({**expl, "generators": [[True, 1]]}, "generator"),
    ]
    for doc, field in cases:
        p = tmp_path / "bool.code"
        p.write_text(json.dumps(doc))
        with pytest.raises(specfile.SpecFileError, match=field):
            specfile.loads(p.read_text())
        assert main(["analyze", str(p)]) == 2
        assert field in capsys.readouterr().err

    n = specfile.load(rate13_file).code.layout.total_dim
    wf = tmp_path / "word.json"
    wf.write_text(json.dumps([True] + [0] * (n - 1)))
    assert main(["syndrome", rate13_file, "--word", str(wf)]) == 2
    captured = capsys.readouterr()
    assert "word" in captured.err and captured.out == ""


def test_encode_inputs_must_be_ints(tmp_path, capsys):
    """Each ``encode --inputs`` entry is an int or a list of ints; null,
    objects, floats, booleans and strings exit 2 with nothing on stdout."""
    import pathlib
    spec = str(pathlib.Path(__file__).resolve().parents[1] / "codes" / "repetition.code")
    inputs = tmp_path / "inputs.json"
    for bad in [None, {"a": 1}, 1.7, True, "1", [1, "a"], [True]]:
        inputs.write_text(json.dumps([bad, 0, 0, 0, 0, 0]))
        assert main(["encode", spec, "--inputs", str(inputs)]) == 2, bad
        captured = capsys.readouterr()
        assert "input" in captured.err and captured.out == ""
    for good in [1, [1]]:
        inputs.write_text(json.dumps([good, 0, 0, 0, 0, 0]))
        assert main(["encode", spec, "--inputs", str(inputs)]) == 0
    assert capsys.readouterr().out.count("codeword:") == 2


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    """JSON nested past the parser's recursion limit raises RecursionError,
    not JSONDecodeError; every reader reports it as a malformed file."""
    import pathlib
    spec = str(pathlib.Path(__file__).resolve().parents[1] / "codes" / "repetition.code")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (["analyze", str(deep)],
                 ["syndrome", spec, "--word", str(deep)],
                 ["encode", spec, "--inputs", str(deep)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "recursion" in captured.err and captured.out == ""


def test_one_int_word_file(tmp_path, capsys):
    """A word file holding one int is a one-entry word, as whitespace-separated
    ints, although it parses as a JSON int."""
    spec = tmp_path / "one.code"
    spec.write_text(json.dumps({"kind": "explicit", "modulus": 4, "axis": 1,
                                "generators": [[2]]}))
    word = tmp_path / "word.txt"
    for text, member in (("6", True), ("1", False)):
        word.write_text(text)
        assert specfile.load_word(word, 1, 4) == [int(text) % 4]
        assert main(["syndrome", str(spec), "--word", str(word), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is member
