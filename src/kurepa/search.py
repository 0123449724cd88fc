"""Checkpointed prime-search campaigns for the exceptional sets.

A campaign is a deterministic per-prime predicate scanned over a range in
blocks. After each block the run hands a snapshot of its full state to its
own writer thread, which replaces a single JSON document atomically (temp
file, fsync, rename); the newest snapshot wins, so while the run is in
progress the file may lag the scan by the write in flight, and on return it
is final and durable. A killed run resumes from the block boundary on disk
to exactly the hits an uninterrupted run would have produced. A failed write
is a CheckpointError.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import _kernels, config
from .errors import CheckpointError, DomainError, EmptyRangeError
from .modmath import iter_primes

__all__ = [
    "Campaign",
    "CAMPAIGNS",
    "Checkpoint",
    "run_campaign",
    "run_sharded",
    "verify_expected",
    "VerifyReport",
]

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Campaign predicates (block scans: primes, columns, params -> hits). A
# campaign that declares an exponent e reads the block's
# ((p-1)! mod p^e, !p mod p^e) columns from the run's `_kernels.run_columns`;
# the others get None.

def _scan_wilson_zero(primes, cols, params):
    ws = _kernels.wilson_column(primes, cols[0])
    return [p for p, w in zip(primes, ws) if w == 0]


def _scan_wieferich(primes, cols, params):
    return [p for p in primes if _kernels.fermat_quotient(p, 2) == 0]


def _scan_mirimanoff(primes, cols, params):
    return [p for p in primes if p != 3 and _kernels.fermat_quotient(p, 3) == 0]


def _scan_gertsch_wilson(primes, cols, params):
    gs = _kernels.gertsch_column(primes, *cols)
    ws = _kernels.wilson_column(primes, cols[0])
    return [p for p, g, w in zip(primes, gs, ws) if g == w]


def _scan_gertsch_zero(primes, cols, params):
    gs = _kernels.gertsch_column(primes, *cols)
    return [p for p, g in zip(primes, gs) if g == 0]


def _scan_wilson_plus_two(primes, cols, params):
    # zeros of the alternating Bernoulli index sum, which is W_p + 2 (mod p),
    # searched as W_p = -2 so no Bernoulli table bounds the range
    ws = _kernels.wilson_column(primes, cols[0])
    return [p for p, w in zip(primes, ws) if (w + 2) % p == 0]


def _scan_wilson_plus_half(primes, cols, params):
    # zeros of the even Bernoulli index sum = W_p + 1/2 (mod p)
    ws = _kernels.wilson_column(primes, cols[0])
    return [p for p, w in zip(primes, ws) if (w + (p + 1) // 2) % p == 0]


def _scan_kurepa_zero(primes, cols, params):
    return [p for p, k in zip(primes, cols[1]) if k == 0]


def _scan_qpm_zero(primes, cols, params):
    """(m, p) pairs with Q_p(m) = AG_p + q_p(m) = 0 (mod p), via AG_p = W_p+1."""
    m_max = int(params.get("m_max", 20))
    ws = _kernels.wilson_column(primes, cols[0])
    hits = []
    for p, w in zip(primes, ws):
        ag = (w + 1) % p
        for m in range(2, m_max + 1):
            if m % p == 0:
                continue
            if (ag + _kernels.fermat_quotient(p, m)) % p == 0:
                hits.append((m, p))
    return hits


@dataclass(frozen=True)
class Campaign:
    name: str
    description: str
    scan: Callable[[list[int], Optional[tuple], dict], list]
    # desk-scale expected fixture: (lo, hi, hits, mode)
    expected: Optional[tuple] = None
    # the scan reads ((p-1)!, !p) mod p^e; None: it reads no columns
    e: Optional[int] = None


CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in [
    Campaign("wilson_zero", "W_p = 0 (mod p): Wilson primes",
             _scan_wilson_zero, expected=(3, 10_000, (5, 13, 563), "equal"), e=2),
    Campaign("wieferich", "q_p(2) = 0 (mod p): Wieferich primes",
             _scan_wieferich, expected=(3, 1_000_000, (1093, 3511), "equal")),
    Campaign("mirimanoff", "q_p(3) = 0 (mod p): Mirimanoff primes",
             _scan_mirimanoff, expected=(3, 1_100_000, (11, 1_006_003), "equal")),
    Campaign("gertsch_wilson", "Gertsch_p = W_p (mod p)",
             _scan_gertsch_wilson, expected=(3, 3000, (3, 7, 2887), "equal"), e=2),
    Campaign("gertsch_zero", "Gertsch_p = 0 (mod p): no hits known",
             _scan_gertsch_zero, expected=(3, 3000, (), "equal"), e=2),
    Campaign("wilson_plus_two", "W_p + 2 = 0 (mod p)",
             _scan_wilson_plus_two, expected=(3, 2000, (3, 7, 71), "equal"), e=2),
    Campaign("wilson_plus_half", "W_p + 1/2 = 0 (mod p)",
             _scan_wilson_plus_half, expected=(3, 1500, (3, 227, 1163), "equal"),
             e=2),
    Campaign("kurepa_zero", "!p = 0 (mod p): no hits known",
             _scan_kurepa_zero, expected=(3, 100_000, (), "equal"), e=1),
    Campaign("qpm_zero", "pairs (m, p) with AG_p + q_p(m) = 0 (mod p)",
             _scan_qpm_zero,
             expected=(3, 37, ((2, 3), (6, 7), (14, 19), (5, 23), (19, 31),
                               (20, 37)), "contains"), e=2),
]}


# ---------------------------------------------------------------------------
# Checkpoints

@dataclass
class Checkpoint:
    campaign: str
    lo: int
    hi: int
    last_p: int          # last prime processed (lo-1 before any work)
    hits: list = field(default_factory=list)
    elapsed_s: float = 0.0
    scanned: int = 0     # primes processed, for primes/second accounting
    version: int = CHECKPOINT_VERSION

    @property
    def complete(self) -> bool:
        return self.last_p >= self.hi

    @property
    def primes_per_second(self) -> float:
        return self.scanned / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def to_json(self) -> str:
        return json.dumps({
            "campaign": self.campaign, "lo": self.lo, "hi": self.hi,
            "last_p": self.last_p,
            "hits": self.hits,
            "elapsed_s": round(self.elapsed_s, 6),
            "scanned": self.scanned,
            "version": self.version,
        })

    def write(self, path: str):
        """Write this checkpoint to path now, on the calling thread."""
        _write_text(path, self.to_json())


def _write_text(path: str, text: str):
    """Replace the file at path by text atomically: write a temp file, fsync
    it and rename it into place. Every checkpoint write goes through here."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Writer:
    """One thread that writes a run's checkpoint snapshots to one path.

    `put` leaves a snapshot in a one-slot mailbox and returns at once; a
    snapshot put while a write is in flight replaces any still waiting, so
    the thread always writes the newest one and never queues old ones.
    `close` waits until the newest snapshot is on disk and the thread has
    ended. After a failed write the thread ends; the next `put` and `close`
    raise CheckpointError, chained from the OSError.
    """

    def __init__(self, path: str):
        self.path = path
        self._cond = threading.Condition()
        self._text: Optional[str] = None   # newest snapshot not yet written
        self._closed = False
        self._error: Optional[OSError] = None
        self._thread = threading.Thread(target=self._run,
                                        name="kurepa-checkpoint-writer")
        self._thread.start()

    def _run(self):
        while True:
            with self._cond:
                while self._text is None and not self._closed:
                    self._cond.wait()
                text, self._text = self._text, None
            if text is None:
                return
            try:
                _write_text(self.path, text)
            except OSError as e:
                self._error = e
                return

    def _raise_error(self):
        if self._error is not None:
            raise CheckpointError(f"cannot write checkpoint {self.path!r}: "
                                  f"{self._error}") from self._error

    def put(self, text: str):
        self._raise_error()
        with self._cond:
            self._text = text
            self._cond.notify()

    def join(self):
        """Write the newest snapshot, then end the thread; no error raised."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join()

    def close(self):
        self.join()
        self._raise_error()


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise CheckpointError(
                f"corrupt checkpoint {path!r}: not a JSON object")
        if obj.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {obj.get('version')!r}")
        hits = [tuple(h) if isinstance(h, list) else h for h in obj["hits"]]
        nums = {k: obj[k] for k in ("lo", "hi", "last_p", "elapsed_s")}
        nums["scanned"] = obj.get("scanned", 0)
        for k, v in nums.items():
            # bool is an int subclass, so compare the exact type
            if type(v) is not int and not (k == "elapsed_s" and type(v) is float):
                raise CheckpointError(
                    f"corrupt checkpoint {path!r}: {k} {v!r} has the wrong type")
        nums["elapsed_s"] = float(nums["elapsed_s"])
        ck = Checkpoint(campaign=obj["campaign"], hits=hits, **nums)
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {e}") from e
    if not ck.lo - 1 <= ck.last_p <= ck.hi:
        raise CheckpointError(f"corrupt checkpoint {path!r}: last_p {ck.last_p} "
                              f"outside [{ck.lo - 1}, {ck.hi}]")
    if ck.scanned < 0 or not 0 <= ck.elapsed_s < math.inf:
        raise CheckpointError(f"corrupt checkpoint {path!r}: negative scanned "
                              "or elapsed_s, or non-finite elapsed_s")
    for h in ck.hits:
        m, p = h if isinstance(h, tuple) and len(h) == 2 else (0, h)
        if type(m) is not int or type(p) is not int:
            raise CheckpointError(f"corrupt checkpoint {path!r}: malformed hit {h!r}")
        if not ck.lo <= p <= ck.last_p:
            raise CheckpointError(
                f"corrupt checkpoint {path!r}: hit {h} outside [{ck.lo}, last_p]")
    return ck


def _chunked(it, size):
    chunk = []
    for x in it:
        chunk.append(x)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _scan_block(campaign: Campaign, primes: list[int], params: dict,
                columns) -> list:
    """The hits of one checkpoint block; `columns` is the run's
    `_kernels.run_columns` generator, advanced here by one block, or None
    for a campaign that reads no columns."""
    cols = None if columns is None else next(columns)
    return campaign.scan(primes, cols, params)


def _require_range(lo: int, hi: int):
    if hi < lo:
        raise EmptyRangeError(f"empty prime range [{lo}, {hi}]")


def run_campaign(name: str, lo: int, hi: int, *,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 stride: int = config.CHECKPOINT_STRIDE,
                 workers: int = 1,
                 params: Optional[dict] = None,
                 stop_after_blocks: Optional[int] = None,
                 progress: Optional[Callable[[Checkpoint], None]] = None) -> Checkpoint:
    """Scan the odd primes in [lo, hi] for a campaign's hits in blocks of
    `stride` primes, checkpointing after each block.

    With a checkpoint_path, each block's checkpoint goes to the run's own
    writer thread, so the scan never waits on the disk. The newest
    checkpoint wins: while the run is in progress the file may lag the scan
    by the write in flight, and every file written is complete, fsynced and
    renamed into place. The writer has finished before this function
    returns, stops or raises, so on return the file is the returned
    checkpoint, final and durable. A failed write raises CheckpointError
    (chained from the OSError), unless the scan itself raised first.

    A campaign that reads the ((p-1)!, !p) columns sieves the run's primes
    up front and reads each block's columns from one remainder tree over
    the run (`_kernels.run_columns`): it folds from n = 1 to the run's first
    prime once, and computes a block's columns only when that block is
    scanned. The Fermat-quotient campaigns stream their primes instead.
    With resume=True the checkpoint at checkpoint_path is loaded, validated
    against (name, lo, hi) and continued past its last processed prime, as
    a run of its own whose tree starts there; interrupted-and-resumed runs
    produce hits identical to uninterrupted ones. stop_after_blocks is a
    testing hook that abandons the scan early (after its checkpoint is
    written), simulating a kill at a checkpoint boundary. Scans run on one
    thread; `workers` accepts only 1. An empty range, hi < lo, raises
    EmptyRangeError.
    """
    if name not in CAMPAIGNS:
        raise DomainError(f"unknown campaign {name!r}; "
                          f"known: {', '.join(sorted(CAMPAIGNS))}")
    _require_range(lo, hi)
    if stride < 1:
        raise DomainError("stride must be >= 1")
    if workers != 1:
        raise DomainError(f"workers must be 1, got {workers}")
    campaign = CAMPAIGNS[name]
    params = dict(params or {})

    if resume:
        if not checkpoint_path:
            raise CheckpointError("resume requested without a checkpoint path")
        ck = load_checkpoint(checkpoint_path)
        if (ck.campaign, ck.lo, ck.hi) != (name, lo, hi):
            raise CheckpointError(
                f"checkpoint is for {ck.campaign}[{ck.lo},{ck.hi}], "
                f"not {name}[{lo},{hi}]")
        start = max(ck.last_p + 1, 3)
    else:
        ck = Checkpoint(campaign=name, lo=lo, hi=hi, last_p=lo - 1)
        start = max(lo, 3)

    writer = _Writer(checkpoint_path) if checkpoint_path else None
    try:
        _advance(campaign, ck, start, stride, params, stop_after_blocks,
                 progress, writer)
    except BaseException:
        if writer is not None:
            writer.join()   # the scan's own exception wins over a failed write
        raise
    if writer is not None:
        writer.close()
    return ck


def _advance(campaign: Campaign, ck: Checkpoint, start: int, stride: int,
             params: dict, stop_after_blocks: Optional[int],
             progress: Optional[Callable[[Checkpoint], None]],
             writer: Optional[_Writer]):
    """Scan the odd primes of [start, ck.hi] into ck block by block, handing
    each block's snapshot to the writer, until the range is exhausted or
    stop_after_blocks blocks are done."""
    hi = ck.hi
    t0 = time.monotonic()
    blocks_done = 0
    if start <= hi:
        blocks, columns = _chunked(iter_primes(start, hi), stride), None
        if campaign.e is not None:
            # the run's tree needs every block's modulus before the first
            blocks = list(blocks)
            columns = _kernels.run_columns(blocks, campaign.e)
        for block in blocks:
            hits = _scan_block(campaign, block, params, columns)
            ck.hits.extend(hits)
            ck.last_p = block[-1]
            ck.scanned += len(block)
            ck.elapsed_s += time.monotonic() - t0
            t0 = time.monotonic()
            if writer is not None:
                writer.put(ck.to_json())
            if progress:
                progress(ck)
            blocks_done += 1
            if stop_after_blocks is not None and blocks_done >= stop_after_blocks:
                return
    if ck.last_p < hi or blocks_done == 0:
        # range exhausted: mark it all processed, unless the last block's
        # snapshot already ends at hi and so is the final one
        ck.last_p = hi
        ck.elapsed_s += time.monotonic() - t0
        if writer is not None:
            writer.put(ck.to_json())


def run_sharded(name: str, lo: int, hi: int, shards: int, *,
                checkpoint_path: Optional[str] = None, resume: bool = False,
                **kwargs) -> Checkpoint:
    """Partition [lo, hi] into contiguous sub-ranges, scan each, merge.

    Hits are identical to a single-range run for any shard count. Shard i
    checkpoints to f"{checkpoint_path}.shard{i}"; with resume=True every
    shard that has a file continues from it and the others start afresh.
    The merged last_p is the end of the processed prefix of [lo, hi].
    """
    _require_range(lo, hi)
    if shards < 1:
        raise DomainError("shards must be >= 1")
    if resume and not checkpoint_path:
        raise CheckpointError("resume requested without a checkpoint path")
    bounds = []
    width = (hi - lo + 1 + shards - 1) // shards
    a = lo
    while a <= hi:
        b = min(a + width - 1, hi)
        bounds.append((a, b))
        a = b + 1
    parts = []
    for i, (a, b) in enumerate(bounds):
        path = f"{checkpoint_path}.shard{i}" if checkpoint_path else None
        parts.append(run_campaign(
            name, a, b, checkpoint_path=path,
            resume=resume and os.path.exists(path), **kwargs))
    last_p = next((part.last_p for part in parts if not part.complete), hi)
    merged = Checkpoint(campaign=name, lo=lo, hi=hi, last_p=last_p)
    for part in parts:
        merged.hits.extend(part.hits)
        merged.scanned += part.scanned
        merged.elapsed_s += part.elapsed_s
    merged.hits.sort(key=lambda h: (h[1], h[0]) if isinstance(h, tuple) else (h, 0))
    return merged


@dataclass(frozen=True)
class VerifyReport:
    campaign: str
    status: str            # pass | fail | inconclusive
    expected: tuple
    found: tuple
    missing: tuple = ()
    unexpected: tuple = ()


def verify_expected(name: str, ck: Checkpoint) -> VerifyReport:
    """Compare a completed checkpoint against the campaign's desk-scale
    fixture; a checkpoint not covering the fixture range is inconclusive."""
    campaign = CAMPAIGNS[name]
    if campaign.expected is None:
        raise DomainError(f"campaign {name!r} has no expected-hit fixture")
    flo, fhi, fhits, mode = campaign.expected

    def hit_p(h):
        return h[1] if isinstance(h, tuple) else h

    if ck.lo > flo or ck.last_p < fhi:
        return VerifyReport(name, "inconclusive", tuple(fhits),
                            tuple(ck.hits))
    found = tuple(h for h in ck.hits if flo <= hit_p(h) <= fhi)
    fset, gset = set(fhits), set(found)
    if mode == "contains":
        missing = tuple(sorted(fset - gset))
        status = "pass" if not missing else "fail"
        return VerifyReport(name, status, tuple(fhits), found, missing, ())
    missing = tuple(sorted(fset - gset))
    unexpected = tuple(sorted(gset - fset))
    status = "pass" if not missing and not unexpected else "fail"
    return VerifyReport(name, status, tuple(fhits), found, missing, unexpected)
