"""The one format every golden-digest test pins its values in: a SHA-256
over a slice's lines, one line per case, beside a short digest per case (in
the catalog, per check and per prime) that names the first differing case.
Each file's `__main__` prints its constants through `show`, so regenerating
a slice is `PYTHONPATH=src python tests/<file>.py`."""

import hashlib
import json


def sha(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def each(lines, width: int = 8) -> str:
    """The first `width` hex digits of each line's own SHA-256, in order."""
    return "".join(sha(s)[:width] for s in lines)


def first_difference(cases, lines, total, want, named, width=8):
    """None when the lines hash to `total`; otherwise `named` filled in with
    the first case whose short digest differs from its slot in `want` (the
    committed `each` list)."""
    lines = list(lines)
    if sha(lines) == total:
        return None
    got, want = each(lines, width), "".join(want)
    return next((named.format(*case) for i, case in enumerate(cases)
                 if got[i * width:(i + 1) * width] != want[i * width:(i + 1) * width]),
                "values differ, but no case's digest does")


def show(name: str, value, per_row: int = 1):
    """Print a constant as the files commit it: a digest on one line, an
    `each` string in 64-digit pieces, or a dict `per_row` entries to a line,
    where an entry too long for one line breaks after its key."""
    if isinstance(value, str) and len(value) <= 64:
        print(f'{name} = "{value}"')
        return
    if isinstance(value, str):
        rows, brackets = [f'"{value[k:k + 64]}",' for k in range(0, len(value), 64)], "[]"
    else:
        items = [f'{json.dumps(k)}: "{v}",' for k, v in value.items()]
        rows = [" ".join(items[r:r + per_row]) for r in range(0, len(items), per_row)]
        brackets = "{}"
    print(f"{name} = {brackets[0]}")
    for row in rows:
        print("    " + (row if len(row) <= 75 else row.replace(": ", ":\n        ", 1)))
    print(brackets[1])
