"""Line-delimited JSON, the format of every ``.jsonl`` file (canonical
traces, outcome records and saved topologies), and ``write_lines``, which
writes every output file to a temporary file beside it and renames it into
place only on success, so a failed write keeps the file it would replace."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

# records are trees (a value may be shared, never contain itself), so the
# encoder skips its cycle bookkeeping
encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


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


def read_jsonl(path: str | Path, decode: Callable, what: str) -> Iterator:
    """Yield ``decode(value)`` for each non-blank line's JSON value; a KeyError,
    TypeError or ValueError (bad JSON and ``TraceError`` included) there
    becomes ``ValueError("<path>: bad <what> at line <n>: <cause>")``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    value = decode(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: bad {what} at line {lineno}: {exc}") from exc
                yield value
