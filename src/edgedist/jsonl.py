"""Line-delimited JSON, the format of every ``.jsonl`` file (canonical
traces, outcome records and saved topologies); ``read_rows``, the reader of
every CSV table; and ``write_lines``, which writes every output file to a
temporary file beside it and renames it into place only on success, so a
failed write keeps the file it would replace.

Besides whole-line codecs, it exports the decoder's own string scanner, so
a reader that knows its writer's layout can take a line's names without
decoding the whole line."""

from __future__ import annotations

import csv
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
# and returns it with the index after its closing quote; it is strict, as
# ``decode`` is
scan_string = json.decoder.scanstring


# the JSON type of each value ``decode`` gives
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def expect_object(value):
    """``value`` when it is a decoded JSON object, else a ValueError that
    names the JSON type it is."""
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {_JSON_TYPES[type(value)]}")
    return value


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    """The error naming ``path`` for ``exc``; a file read line by line is
    decoded in chunks, so ``exc`` does not place the byte in the file."""
    return ValueError(f"{path}: not UTF-8 text ({exc.reason}, byte {exc.object[exc.start]:#04x})")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each string as one line.  The file gets the mode a plain open()
    would give it, 0666 less the umask; mkstemp alone gives 0600.  An
    OSError names ``path``, not the temporary file."""
    path = Path(path)
    try:
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """Write each record as one compact JSON line."""
    write_lines(path, map(encode, records))


def read_lines(path: str | Path, decode_line: Callable[[str], object], what: str) -> Iterator:
    """Yield ``decode_line(line)`` for each non-blank line; a leading
    byte-order mark is encoding, not data.  A KeyError, TypeError or
    ValueError (bad JSON and ``TraceError`` included) there becomes
    ``ValueError("<path>: bad <what> at line <n>: <cause>")``, and
    undecodable bytes ``not_utf8``'s error."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():  # a line read from a file is never empty
                    try:
                        value = decode_line(line)
                    except (KeyError, TypeError, ValueError) as exc:
                        raise ValueError(f"{path}: bad {what} at line {lineno}: {exc}") from exc
                    yield value
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc


def read_jsonl(path: str | Path, decode_value: Callable, what: str) -> Iterator:
    """Yield ``decode_value(value)`` for each non-blank line's JSON value,
    with errors named as ``read_lines`` names them."""
    return read_lines(path, lambda line: decode_value(decode(line)), what)


def read_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield, as it reads them, the physical line number and cells of each CSV
    row of ``path`` with a cell that is not all whitespace; a leading
    byte-order mark is encoding, not data.  A row the reader refuses is a
    ValueError naming its line, raised once the rows before it are yielded."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if any(map(str.strip, row)):
                    yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
