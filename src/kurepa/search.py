"""Checkpointed prime-search campaigns for the exceptional sets.

A campaign is a deterministic rule over named per-prime columns, scanned
over a range in blocks. After each block the run hands a snapshot of its
full state to its own writer thread, which replaces a single JSON document
atomically (temp file, fsync, rename); the newest snapshot wins, so while
the run is in progress the file may lag the scan by the write in flight,
and on return it is final and durable. A killed run resumes from the block
boundary on disk to exactly the hits an uninterrupted run would have
produced. A failed write is a CheckpointError and removes its temp file; a
run killed mid-write can leave one, which the next write overwrites.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import suppress
from operator import mod
from typing import Callable, NamedTuple, Optional

from . import _kernels, config
from ._memo import Memo
from .errors import CheckpointError, DomainError, EmptyRangeError
from .modmath import is_prime, iter_primes

__all__ = [
    "Campaign",
    "CAMPAIGNS",
    "Checkpoint",
    "run_campaign",
    "run_sharded",
    "kurepa_zeros",
    "verify_expected",
    "VerifyReport",
]

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Columns and hit rules. A campaign reads named columns, one value per prime
# of a block, which its hit rule turns into the block's hits. A column's
# block kernel maps the block's primes and its columns of the run tree
# `_kernels.run_columns` at exponent e and width (no tree when e is None)
# to the column's values:
#
#   column    e     width  value at p
#   wilson    2     1      W_p mod p, from (p-1)! mod p^2
#   kurepa    1     2      !p mod p
#   gertsch   2     3      Gertsch_p mod p, from (p-1)!, !p and Der_{p-1}
#   q2        None  1      q_p(2) mod p
#   q3        None  1      q_p(3) mod p, None at p = 3
#
# A run's tree has the largest e and width over the columns it reads. Runs
# that read wilson or kurepa alone step to n = (p+1)/2, and the tree reads
# (p-1)! off (h!)^2 by Morley's congruence and !p off h!, !(h+1) and Der_h
# by Wilson's reflection, h = (p-1)/2; a gertsch run steps to n = p.

class _Column(NamedTuple):
    e: Optional[int]
    width: int
    kernel: Callable[[list[int], Optional[tuple]], list]


_COLUMNS: dict[str, _Column] = {
    "wilson": _Column(2, 1, lambda ps, cols: _kernels.wilson_column(ps, cols[0])),
    "kurepa": _Column(1, 2, lambda ps, cols: list(map(mod, cols[1], ps))),
    "gertsch": _Column(2, 3, lambda ps, cols: _kernels.gertsch_column(ps, *cols)),
    "q2": _Column(None, 1, lambda ps, _: [_kernels.fermat_quotient(p, 2) for p in ps]),
    "q3": _Column(None, 1, lambda ps, _: [None if p == 3 else
                                          _kernels.fermat_quotient(p, 3) for p in ps]),
}


def _zeros(primes, xs):
    return [p for p, x in zip(primes, xs) if x == 0]


def _equal(primes, xs, ys):
    return [p for p, x, y in zip(primes, xs, ys) if x == y]


def _wilson_plus_two(primes, ws):
    # zeros of the alternating Bernoulli index sum, which is W_p + 2 (mod p),
    # searched as W_p = -2 so no Bernoulli table bounds the range
    return [p for p, w in zip(primes, ws) if (w + 2) % p == 0]


def _wilson_plus_half(primes, ws):
    # zeros of the even Bernoulli index sum = W_p + 1/2 (mod p)
    return [p for p, w in zip(primes, ws) if (w + (p + 1) // 2) % p == 0]


def _qpm_pairs(primes, ws, m_max):
    """(m, p) pairs with Q_p(m) = AG_p + q_p(m) = 0 (mod p), via AG_p = W_p+1."""
    return [(m, p) for p, w in zip(primes, ws) for m in range(2, m_max + 1)
            if m % p and (w + 1 + _kernels.fermat_quotient(p, m)) % p == 0]


class _CampaignFields(NamedTuple):
    name: str
    description: str
    # the `_COLUMNS` the hit rule reads, in the order it takes them
    reads: tuple
    # hit(primes, *columns, **params): one block's hits, in scan order
    hit: Callable[..., list]
    # desk-scale expected fixture: (lo, hi, hits, mode)
    expected: Optional[tuple]
    # the params the hit rule reads, each with its default; a run's
    # checkpoint records them, and a resume must pass the same. With m_max
    # the rule tests each m in 2..m_max at each prime and its hits are
    # (m, p) pairs; the others' hits are primes.
    params: dict


class Campaign(_CampaignFields):
    """A campaign and its contract: the columns it reads, the params a run
    takes and the hits a run may hold. Every run, resume, shard merge and
    fixture check reads them through `run_params` and `hit_key`."""

    __slots__ = ()

    def __new__(cls, name: str, description: str, reads: tuple,
                hit: Callable[..., list], expected: Optional[tuple] = None,
                params: Optional[dict] = None):
        # each campaign holds its own params dict
        return super().__new__(cls, name, description, reads, hit, expected,
                               {} if params is None else params)

    @property
    def e(self) -> Optional[int]:
        """The run tree's exponent, the largest over `reads`; None: no tree."""
        return max(filter(None, (_COLUMNS[c].e for c in self.reads)), default=None)

    @property
    def width(self) -> int:
        """The run tree's width, the largest over `reads`."""
        return max((_COLUMNS[c].width for c in self.reads), default=1)

    def run_params(self, params: Optional[dict]) -> dict:
        """The params of a run: each param the campaign takes, from params
        or else its default. A name it does not take, or an m_max that is
        not an int >= 2, raises DomainError."""
        params = params or {}
        others = sorted(set(params) - set(self.params))
        if others:
            raise DomainError(f"campaign {self.name!r} takes no param "
                              f"{', '.join(others)}")
        out = {**self.params, **params}
        # bool is an int subclass, so compare the exact type
        if "m_max" in out and (type(out["m_max"]) is not int or out["m_max"] < 2):
            raise DomainError(f"m_max must be an integer >= 2, got {out['m_max']!r}")
        return out

    def hit_key(self, hit, lo: int, last_p: int, params: dict) -> tuple[int, int]:
        """The scan-order key (p, m) of a hit of a run over [lo, last_p]
        with params, m = 0 for a prime hit; a scan finds each hit once, in
        order of this key. A hit of the wrong shape, whose p is not an odd
        prime in [lo, last_p], or whose m lies outside 2..m_max or is a
        multiple of p, raises DomainError."""
        pairs = "m_max" in self.params
        if pairs:
            m, p = hit if type(hit) is tuple and len(hit) == 2 else (None, None)
        else:
            m, p = 0, hit
        if type(m) is not int or type(p) is not int:
            raise DomainError(f"malformed {self.name} hit {hit!r}")
        if not (lo <= p <= last_p and p > 2 and is_prime(p)):
            raise DomainError(f"hit {hit!r}: {p} is not an odd prime "
                              f"in [{lo}, {last_p}]")
        if pairs and not (2 <= m <= params["m_max"] and m % p):
            raise DomainError(f"hit {hit!r}: m = {m} is outside 2..m_max = "
                              f"{params['m_max']} or a multiple of {p}")
        return p, m


CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in [
    Campaign("wilson_zero", "W_p = 0 (mod p): Wilson primes", ("wilson",),
             _zeros, expected=(3, 10_000, (5, 13, 563), "equal")),
    Campaign("wieferich", "q_p(2) = 0 (mod p): Wieferich primes", ("q2",),
             _zeros, expected=(3, 1_000_000, (1093, 3511), "equal")),
    Campaign("mirimanoff", "q_p(3) = 0 (mod p): Mirimanoff primes", ("q3",),
             _zeros, expected=(3, 1_100_000, (11, 1_006_003), "equal")),
    Campaign("gertsch_wilson", "Gertsch_p = W_p (mod p)", ("gertsch", "wilson"),
             _equal, expected=(3, 3000, (3, 7, 2887), "equal")),
    Campaign("gertsch_zero", "Gertsch_p = 0 (mod p): no hits known",
             ("gertsch",), _zeros, expected=(3, 3000, (), "equal")),
    Campaign("wilson_plus_two", "W_p + 2 = 0 (mod p)", ("wilson",),
             _wilson_plus_two, expected=(3, 2000, (3, 7, 71), "equal")),
    Campaign("wilson_plus_half", "W_p + 1/2 = 0 (mod p)", ("wilson",),
             _wilson_plus_half, expected=(3, 1500, (3, 227, 1163), "equal")),
    Campaign("kurepa_zero", "!p = 0 (mod p): no hits known", ("kurepa",),
             _zeros, expected=(3, 100_000, (), "equal")),
    Campaign("qpm_zero", "pairs (m, p) with AG_p + q_p(m) = 0 (mod p)",
             ("wilson",), _qpm_pairs,
             expected=(3, 37, ((2, 3), (6, 7), (14, 19), (5, 23), (19, 31),
                               (20, 37)), "contains"),
             params={"m_max": 20}),
]}


# ---------------------------------------------------------------------------
# Checkpoints

class Checkpoint:
    __slots__ = ("campaign", "lo", "hi", "last_p", "hits", "elapsed_s",
                 "scanned", "params")

    def __init__(self, campaign: str, lo: int, hi: int, last_p: int,
                 hits: Optional[list] = None, elapsed_s: float = 0.0,
                 scanned: int = 0, params: Optional[dict] = None):
        self.campaign, self.lo, self.hi = campaign, lo, hi
        self.last_p = last_p  # last prime processed (lo-1 before any work)
        self.hits = [] if hits is None else hits
        self.elapsed_s = elapsed_s
        self.scanned = scanned  # primes processed, for primes/second accounting
        self.params = {} if params is None else params  # `Campaign.run_params`

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Checkpoint({fields})"

    @property
    def complete(self) -> bool:
        return self.last_p >= self.hi

    @property
    def primes_per_second(self) -> float:
        return self.scanned / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def to_json(self) -> str:
        """The checkpoint file's JSON; "params" only for a campaign that
        takes params, so the other campaigns' files keep their fields."""
        return json.dumps({
            "campaign": self.campaign, "lo": self.lo, "hi": self.hi,
            "last_p": self.last_p,
            "hits": self.hits,
            "elapsed_s": round(self.elapsed_s, 6),
            "scanned": self.scanned,
            "version": CHECKPOINT_VERSION,
            **({"params": self.params} if self.params else {}),
        })

    def write(self, path: str):
        """Write this checkpoint to path now, on the calling thread."""
        _write_text(path, self.to_json())


def _write_text(path: str, text: str):
    """Replace the file at path by text atomically: write a temp file, fsync
    it and rename it into place, or remove it if any step raises. Every
    checkpoint write goes through here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
        # True == 1, so compare the exact type here too
        if (obj.get("version") != CHECKPOINT_VERSION
                or type(obj["version"]) is not int):
            raise CheckpointError(
                f"unsupported checkpoint version {obj.get('version')!r}")
        campaign = CAMPAIGNS.get(obj["campaign"])
        if campaign is None:
            raise CheckpointError(f"corrupt checkpoint {path!r}: unknown "
                                  f"campaign {obj['campaign']!r}")
        # a file without params (as every one before they were recorded)
        # holds the campaign's defaults
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise CheckpointError(
                f"corrupt checkpoint {path!r}: params {params!r} is not an object")
        params = campaign.run_params(params)
        # JSON holds a pair hit as a list
        hits = [tuple(h) if isinstance(h, list) else h for h in obj["hits"]]
        nums = {k: obj[k] for k in ("lo", "hi", "last_p", "elapsed_s")}
        nums["scanned"] = obj.get("scanned", 0)
        for k, v in nums.items():
            # bool is an int subclass, so compare the exact type
            if type(v) is not int and not (k == "elapsed_s" and type(v) is float):
                raise CheckpointError(
                    f"corrupt checkpoint {path!r}: {k} {v!r} has the wrong type")
        nums["elapsed_s"] = float(nums["elapsed_s"])
        ck = Checkpoint(campaign=campaign.name, hits=hits, params=params, **nums)
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
    key = (ck.lo - 1, 0)
    for h in ck.hits:
        try:
            h_key = campaign.hit_key(h, ck.lo, ck.last_p, ck.params)
        except DomainError as e:
            raise CheckpointError(f"corrupt checkpoint {path!r}: {e}") from e
        if h_key <= key:
            raise CheckpointError(f"corrupt checkpoint {path!r}: hit {h} "
                                  "repeated or out of scan order")
        key = h_key
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
    """The hits of one checkpoint block: each column the campaign reads,
    computed once from the block's tree columns, then its hit rule.
    `columns` is the run's `_kernels.run_columns` generator, advanced here
    by one block, or None for a campaign whose columns need no tree."""
    cols = None if columns is None else next(columns)
    return campaign.hit(primes, *(_COLUMNS[c].kernel(primes, cols)
                                  for c in campaign.reads), **params)


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

    A campaign that reads a tree column (`Campaign.e` is not None) sieves
    the run's primes up front and reads each block's columns from one
    remainder tree over the run (`_kernels.run_columns` at its e and
    width): it folds from n = 1 to the run's first prime once, and computes
    a block's columns only when that block is scanned. The Fermat-quotient
    campaigns stream their primes instead.
    params are the campaign's params (`Campaign.params` holds each one's
    default; only qpm_zero takes one, m_max, an int >= 2); a name the
    campaign does not take, or a bad value, raises DomainError.
    With resume=True the checkpoint at checkpoint_path is loaded, validated
    against (name, lo, hi, params) and continued past its last processed
    prime, as a run of its own whose tree starts there; interrupted-and-resumed runs
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
    params = campaign.run_params(params)

    if resume:
        if not checkpoint_path:
            raise CheckpointError("resume requested without a checkpoint path")
        ck = load_checkpoint(checkpoint_path)
        if (ck.campaign, ck.lo, ck.hi) != (name, lo, hi):
            raise CheckpointError(
                f"checkpoint is for {ck.campaign}[{ck.lo},{ck.hi}], "
                f"not {name}[{lo},{hi}]")
        if ck.params != params:
            raise CheckpointError(f"checkpoint was written with params "
                                  f"{ck.params}, not {params}")
        start = max(ck.last_p + 1, 3)
    else:
        ck = Checkpoint(campaign=name, lo=lo, hi=hi, last_p=lo - 1,
                        params=params)
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
            columns = _kernels.run_columns(blocks, campaign.e, campaign.width)
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


# the scanned prefix: every odd prime < "below" is scanned; "zeros" are its Kurepa zeros
_kurepa_prefix = Memo()


def kurepa_zeros(n: int) -> list[int]:
    """The odd primes q <= n with !q = 0 (mod q), none if Kurepa's
    conjecture holds. Under the prefix's lock, a call runs one `kurepa_zero`
    pass over only the part of [3, n] that the prefix does not cover and
    extends it once the pass returns, so no prime is scanned twice."""
    with _kurepa_prefix.lock:
        below, zeros = _kurepa_prefix.get("below", 3), _kurepa_prefix.get("zeros", ())
        if n >= below:
            zeros += tuple(run_campaign("kurepa_zero", below, n).hits)
            _kurepa_prefix.update(below=n + 1, zeros=zeros)
    return [q for q in zeros if q <= n]


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
    merged = Checkpoint(campaign=name, lo=lo, hi=hi, last_p=last_p,
                        params=parts[0].params)
    for part in parts:
        merged.hits.extend(part.hits)
        merged.scanned += part.scanned
        merged.elapsed_s += part.elapsed_s
    # a shard past the first unfinished one may hold hits beyond last_p
    campaign = CAMPAIGNS[name]
    merged.hits.sort(key=lambda h: campaign.hit_key(h, lo, hi, merged.params))
    return merged


class VerifyReport(NamedTuple):
    campaign: str
    status: str            # pass | fail | inconclusive
    expected: tuple
    found: tuple
    missing: tuple = ()
    unexpected: tuple = ()


def verify_expected(name: str, ck: Checkpoint) -> VerifyReport:
    """Compare a completed checkpoint against the campaign's desk-scale
    fixture; a checkpoint not covering the fixture range is inconclusive.
    Only the fixture hits a run with the checkpoint's params can find are
    expected (for qpm_zero, the pairs with m <= its m_max)."""
    campaign = CAMPAIGNS[name]
    if campaign.expected is None:
        raise DomainError(f"campaign {name!r} has no expected-hit fixture")
    flo, fhi, fhits, mode = campaign.expected
    expected = []
    for h in fhits:
        with suppress(DomainError):
            campaign.hit_key(h, flo, fhi, ck.params)
            expected.append(h)
    expected = tuple(expected)
    if ck.lo > flo or ck.last_p < fhi:
        return VerifyReport(name, "inconclusive", expected, tuple(ck.hits))
    found = tuple(h for h in ck.hits
                  if flo <= campaign.hit_key(h, ck.lo, ck.last_p, ck.params)[0] <= fhi)
    missing = tuple(h for h in expected if h not in found)
    unexpected = () if mode == "contains" else tuple(h for h in found
                                                      if h not in expected)
    status = "fail" if missing or unexpected else "pass"
    return VerifyReport(name, status, expected, found, missing, unexpected)
