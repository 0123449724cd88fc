"""The one type of process-wide memo: a dict with its own lock, made at
import, registered when made and only ever changed in place, so that
`clear_all()` reaches every value the process keeps across calls. What a
memo keeps, and its bound, stay at the call site that fills it."""

import threading

_memos = []  # every Memo, in the order made


class Memo(dict):
    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        _memos.append(self)


def clear_all() -> None:
    """Empty every memo, each under its own lock."""
    for memo in _memos:
        with memo.lock:
            memo.clear()
