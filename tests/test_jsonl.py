import ast
import json
import re
from pathlib import Path

import pytest

import edgedist
from edgedist.ingest import read_canonical, trace_to_record
from edgedist.jsonl import read_jsonl, write_jsonl, write_lines
from edgedist.transit import EstimateOptions, batch_estimate, read_outcomes, write_outcomes

from conftest import trace


def test_write_is_compact_and_read_skips_blank_lines(tmp_path):
    path = tmp_path / "values.jsonl"
    write_jsonl(path, [{"a": [1, None]}, "x", 2.5])
    assert path.read_text() == '{"a":[1,null]}\n"x"\n2.5\n'
    with open(path, "a") as fh:
        fh.write("\n  \n7\n")
    assert list(read_jsonl(path, lambda v: v, "value")) == [{"a": [1, None]}, "x", 2.5, 7]


def test_write_lines_that_fails_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"old\ncontents\n")

    def lines():
        yield "first"
        yield "second"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\ncontents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]


def test_only_the_codec_imports_json():
    importers = []
    for module in sorted(Path(edgedist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.append(module.name)
    assert importers == ["jsonl.py"]


def _canonical_record(tmp_path):
    return trace_to_record(trace("O1", "X", [("T", 1.0), ("X", 3.0)]))


def _outcome_record(tmp_path):
    outcomes, _ = batch_estimate(
        {"O1": [trace("O1", "X", [("T", 1.0), ("X", 3.0)]),
                trace("O1", "Y", [("T", 1.0), ("Y", 4.0)])]},
        [("X", "Y")],
        EstimateOptions(mode="host"),
    )
    path = tmp_path / "one.jsonl"
    write_outcomes(outcomes, path)
    return json.loads(path.read_text())


# reader, what its errors call a line, a valid record, and one field of it
# to drop or to give a value of the wrong type
READERS = {
    "canonical": (read_canonical, "trace", _canonical_record, "hops", 5),
    "outcomes": (read_outcomes, "outcome", _outcome_record, "pair", 5),
}


@pytest.mark.parametrize("case", ["not an object", "bad json", "missing key", "wrong-typed field"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_line_names_path_and_line(tmp_path, reader, case):
    read, what, make_record, key, wrong = READERS[reader]
    good = make_record(tmp_path)
    read(_write_lines(tmp_path / "good.jsonl", [json.dumps(good)]))  # reads unedited
    line = {
        "not an object": json.dumps([good]),
        "bad json": json.dumps(good)[:-1],
        "missing key": json.dumps({k: v for k, v in good.items() if k != key}),
        "wrong-typed field": json.dumps({**good, key: wrong}),
    }[case]
    path = _write_lines(tmp_path / "bad.jsonl", [json.dumps(good), "", line])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad {what} at line 3: "):
        read(path)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path
