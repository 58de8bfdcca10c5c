"""Line-delimited JSON, the format of every ``.jsonl`` file (canonical
traces, outcome records and saved topologies), and ``write_lines``, which
writes every output file to a temporary file beside it and renames it into
place only on success, so a failed write keeps the file it would replace.

Besides whole-line codecs, it exports the decoder's own scanners, so a
reader that knows its writer's layout can decode a line piece by piece and
still parse exactly as ``json.loads`` would."""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

# records are trees (a value may be shared, never contain itself), so the
# encoder skips its cycle bookkeeping
encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

decode = json.loads

# scan_string(text, i) decodes the string whose opening quote is at i - 1
# and returns it with the index after its closing quote; scan_value(text, i)
# decodes the value that starts at i and returns it with the index after it,
# or raises StopIteration when none starts there.  Both are strict, as
# ``decode`` is.
scan_string = json.decoder.scanstring
scan_value = json.JSONDecoder().scan_once


# the JSON type of each value ``decode`` gives
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def expect_object(value):
    """``value`` when it is a decoded JSON object, else a ValueError that
    names the JSON type it is."""
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {_JSON_TYPES[type(value)]}")
    return value


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string as one line.  The file gets the mode a plain open()
    would give it, 0666 less the umask; mkstemp alone gives 0600."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """Write each record as one compact JSON line."""
    write_lines(path, map(encode, records))


def read_lines(path: str | Path, decode_line: Callable[[str], object], what: str) -> Iterator:
    """Yield ``decode_line(line)`` for each non-blank line; a leading
    byte-order mark is encoding, not data.  A KeyError, TypeError or
    ValueError (bad JSON and ``TraceError`` included) there becomes
    ``ValueError("<path>: bad <what> at line <n>: <cause>")``."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():  # a line read from a file is never empty
                try:
                    value = decode_line(line)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: bad {what} at line {lineno}: {exc}") from exc
                yield value


def read_jsonl(path: str | Path, decode_value: Callable, what: str) -> Iterator:
    """Yield ``decode_value(value)`` for each non-blank line's JSON value,
    with errors named as ``read_lines`` names them."""
    return read_lines(path, lambda line: decode_value(decode(line)), what)
