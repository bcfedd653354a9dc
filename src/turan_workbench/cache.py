"""Append-only JSON-lines result cache shared by the zar and ex records.

One record per line; exact records are immutable and carry their witness
document plus its hash.  A corrupt or invalid line is skipped with a
warning, never silently repaired.  Readers tolerate a partial trailing line.
A writer holds an exclusive ``flock`` on the file while it appends its line
in one write, so concurrent appends by separate processes never interleave,
and it first ends a torn last line left by a crashed writer.

z_t is ex(...; K_2(t)), so every result is one ``Record`` whose key is an
``ExInstance``, with one lookup and one append (the zar and ex method names
are the same methods).  A record with q = 2 is written as a "zar" line,
which has no q field; every other record is an "ex" line.  Readers accept
both tags on any instance, so an "ex" line with q = 2 is a hit too.
Lookups are served from one index per cache file per process, keyed by
(sizes, q, t) with q = 2 for a zar line.  The last valid line for a key
wins.  The index is tied to the file's bytes, not to its mtime, which is
too coarse to see a rewrite of the same size within one clock tick.  Every
lookup reads the file: if its bytes are unchanged the lookup is a dict hit.
If they extend the old bytes and those ended in a newline (an append), only
the new lines are indexed; any other change (a torn tail, its completion, a
rewrite or a truncation) rebuilds the index from every line, which costs a
dict lookup per line already seen.  Each distinct line is parsed once per
process, and checked once per process (witness hash, then the record's own
``check``: edge count and detector) before it is first returned.  Verdicts
are keyed by the line's exact bytes, so a record is only ever returned from
bytes that were verified.

The cache path comes from the TURAN_WORKBENCH_CACHE environment variable
when not given explicitly.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import threading
import warnings
from pathlib import Path

from .graphs import PartitionedGraph, canonical_json
from .zarankiewicz import ExInstance, OracleError, Record

ENV_VAR = "TURAN_WORKBENCH_CACHE"
DEFAULT_FILENAME = "turan_workbench_cache.jsonl"


def witness_hash(g: PartitionedGraph) -> str:
    """SHA-256 of the witness's canonical JSON.  A witness equal to one the
    cache has verified on a line is answered with that line's hash."""
    digest = _VERIFIED_HASHES.get(g)
    if digest is None:
        digest = hashlib.sha256(g.canonical_json().encode()).hexdigest()
    return digest


def default_cache_path() -> Path:
    return Path(os.environ.get(ENV_VAR, DEFAULT_FILENAME))


def _document(rec: Record) -> dict:
    key = rec.key
    doc = {"type": "zar"} if key.q == 2 else {"type": "ex", "q": key.q}
    doc.update(sizes=list(key.part_sizes), t=key.t, value=rec.value,
               status=rec.status, witness=rec.witness.to_document(),
               witness_sha256=witness_hash(rec.witness))
    return doc


def _record(doc: dict) -> Record:
    """The record a parsed line holds, checked; raises if it is invalid."""
    witness = PartitionedGraph.from_document(doc["witness"])
    digest = witness_hash(witness)
    if digest != doc.get("witness_sha256"):
        raise OracleError("witness hash mismatch")
    q = doc["q"] if doc["type"] == "ex" else 2
    rec = Record(ExInstance(tuple(doc["sizes"]), q, doc["t"]), doc["value"],
                 witness, doc["status"])
    rec.check()
    _VERIFIED_HASHES[witness] = digest
    return rec


_CORRUPT = object()     # index key of a line that is not a JSON object


def _line_key(line: bytes):
    """The index key of a line, None if no lookup can use it (a blank line
    included), or ``_CORRUPT``."""
    if not line.strip():
        return None
    try:
        doc = json.loads(line)
    except ValueError:
        return _CORRUPT
    if not isinstance(doc, dict):
        return _CORRUPT
    tag = doc.get("type")
    if tag not in ("zar", "ex") or doc.get("status") != "exact":
        return None
    try:
        key = (tuple(doc.get("sizes", ())), doc.get("q") if tag == "ex" else 2,
               doc.get("t"))
        hash(key)
    except TypeError:   # sizes not a list, or a field that is no scalar
        return None
    return key


# Per-process state, shared by every ResultCache of the process and guarded
# by _LOCK: the memos are keyed by a line's exact bytes, the indexes by the
# cache file's absolute path.
_LOCK = threading.Lock()
_KEYS: dict[bytes, object] = {}       # line -> _line_key(line)
_CHECKED: dict[bytes, object] = {}    # line -> its checked record, or why it is invalid
# witness -> the hash verified on its line; keyed by graph value, so an equal
# graph gets the same (correct) hash
_VERIFIED_HASHES: dict[PartitionedGraph, str] = {}
_INDEXES: dict[str, "_Index"] = {}


def _memo_key(line: bytes):
    key = _KEYS.get(line, _KEYS)
    if key is _KEYS:
        key = _KEYS[line] = _line_key(line)
    return key


def _checked(line: bytes):
    """The record on ``line``, checked once per distinct line content, or a
    string saying why the line is invalid."""
    result = _CHECKED.get(line)
    if result is None:
        try:
            result = _record(json.loads(line))
        except Exception as exc:   # noqa: BLE001 - any bad line is skipped
            result = str(exc)
        _CHECKED[line] = result
    return result


class _Index:
    """The lookup index of one cache file, built from the bytes last read.

    A trailing fragment (a line still being written, or torn by a crashed
    writer) is indexed like any other line.
    """

    def __init__(self) -> None:
        self.data = b""     # the file's bytes when last read
        self.newlines = 0   # newlines in ``data``
        self.entries: dict[tuple, list[tuple[int, bytes]]] = {}   # key -> (lineno, line)
        self.corrupt: list[int] = []

    def refresh(self, data: bytes) -> None:
        old = self.data
        if data == old:
            return
        if old.endswith(b"\n") and data.startswith(old):
            # an append: the old lines keep their numbers and entries
            done, tail = self.newlines, data[len(old):]
        else:
            self.entries, self.corrupt = {}, []
            done, tail = 0, data
        for lineno, line in enumerate(tail.split(b"\n"), done + 1):
            key = _memo_key(line)
            if key is _CORRUPT:
                self.corrupt.append(lineno)
            elif key is not None:
                self.entries.setdefault(key, []).append((lineno, line))
        self.data = data
        self.newlines = done + tail.count(b"\n")

    def lines_for(self, key: tuple) -> list[tuple[int, "bytes | None"]]:
        """(lineno, line) of the candidate lines for ``key`` and (lineno,
        None) of the corrupt lines, in file order."""
        return sorted([(n, None) for n in self.corrupt] + self.entries.get(key, []),
                      key=lambda item: item[0])


class ResultCache:
    def __init__(self, path: "str | Path | None" = None):
        self.path = Path(path) if path is not None else default_cache_path()

    def get_ex(self, inst: ExInstance) -> "Record | None":
        """The last valid exact record for ``inst`` in the file, or None."""
        with _LOCK:
            try:
                data = self.path.read_bytes()
            except FileNotFoundError:
                data = b""
            where = os.path.abspath(self.path)
            index = _INDEXES.get(where)
            if index is None:
                index = _INDEXES[where] = _Index()
            index.refresh(data)
            best = None
            for lineno, line in index.lines_for((inst.part_sizes, inst.q, inst.t)):
                if line is None:
                    warnings.warn(f"{self.path}:{lineno}: corrupt cache line skipped")
                    continue
                result = _checked(line)
                if isinstance(result, str):
                    warnings.warn(f"{self.path}:{lineno}: invalid record skipped "
                                  f"({result})")
                    continue
                best = result
        # a new record, so a caller that changes it cannot change the memo
        return None if best is None else dataclasses.replace(best)

    def put_ex(self, rec: Record) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = canonical_json(_document(rec)).encode("utf-8")
        with open(self.path, "a+b", buffering=0) as fh:
            # the lock makes the torn-tail test and the append one step for
            # every writer, so no writer sees another's line half written
            fcntl.flock(fh, fcntl.LOCK_EX)
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    # a crashed writer left a torn last line: end it, so the
                    # new record is a line of its own
                    data = b"\n" + data
            fh.write(data)      # one write call; closing the file unlocks it

    # a z key is the instance with q = 2: one lookup and one append
    get_zar, put_zar = get_ex, put_ex
