"""Small file-writing helpers: atomic writes, canonical JSON and CSV text."""

import json
import os
import tempfile


def write_bytes_atomic(path, data):
    """Write bytes to path via a temp file in the same directory + rename, so
    readers never observe a half-written file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path, text):
    """UTF-8 text through write_bytes_atomic."""
    write_bytes_atomic(path, text.encode("utf-8"))


def canonical_json(obj):
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def write_json_atomic(path, obj):
    write_text_atomic(path, canonical_json(obj))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return "%d" % value
    return repr(value)


def format_csv(columns, rows):
    """A header line naming `columns`, then one line per row (a mapping
    from column name to value). Cells: None is empty, strings as is,
    integers in decimal, floats as repr (exact round trip; inf spelled
    out)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[column]) for column in columns))
    return "\n".join(lines) + "\n"
