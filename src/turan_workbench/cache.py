"""Append-only JSON-lines result cache shared by the zar and ex records.

One record per line; exact records are immutable and carry their witness
document plus its hash.  Records are re-validated on read (edge count and
detector check); a corrupt or invalid line is skipped with a warning, never
silently repaired.  Readers tolerate a partial trailing line, so concurrent
appends by separate processes are safe at line granularity, and a writer
first ends a torn last line left by a crashed one.

The cache path comes from the TURAN_WORKBENCH_CACHE environment variable
when not given explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from .graphs import PartitionedGraph, canonical_json

ENV_VAR = "TURAN_WORKBENCH_CACHE"
DEFAULT_FILENAME = "turan_workbench_cache.jsonl"


def witness_hash(g: PartitionedGraph) -> str:
    return hashlib.sha256(g.canonical_json().encode()).hexdigest()


def default_cache_path() -> Path:
    return Path(os.environ.get(ENV_VAR, DEFAULT_FILENAME))


class ResultCache:
    def __init__(self, path: "str | Path | None" = None):
        self.path = Path(path) if path is not None else default_cache_path()

    # -- generic line handling ---------------------------------------------

    def _lines(self):
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(f"{self.path}:{lineno}: corrupt cache line skipped")

    def _append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = canonical_json(record).encode("utf-8")
        with open(self.path, "a+b") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    # a crashed writer left a torn last line: end it, so the
                    # new record is a line of its own
                    data = b"\n" + data
            fh.write(data)

    # -- zar records ----------------------------------------------------------

    def get_zar(self, key):
        from .zarankiewicz import OracleError, ZarKey, ZarRecord
        best = None
        for lineno, doc in self._lines():
            if doc.get("type") != "zar":
                continue
            if (tuple(doc.get("sizes", ())) != key.part_sizes
                    or doc.get("t") != key.t or doc.get("status") != "exact"):
                continue
            try:
                witness = PartitionedGraph.from_document(doc["witness"])
                if witness_hash(witness) != doc.get("witness_sha256"):
                    raise OracleError("witness hash mismatch")
                rec = ZarRecord(ZarKey(tuple(doc["sizes"]), doc["t"]),
                                doc["value"], witness, doc["status"])
                rec.check()
            except Exception as exc:   # noqa: BLE001 - any bad line is skipped
                warnings.warn(f"{self.path}:{lineno}: invalid zar record skipped ({exc})")
                continue
            best = rec
        return best

    def put_zar(self, rec) -> None:
        self._append({
            "type": "zar",
            "sizes": list(rec.key.part_sizes),
            "t": rec.key.t,
            "value": rec.value,
            "status": rec.status,
            "witness": rec.witness.to_document(),
            "witness_sha256": witness_hash(rec.witness),
        })

    # -- ex records -------------------------------------------------------------

    def get_ex(self, inst):
        from .extremal import ExInstance, ExRecord
        from .zarankiewicz import OracleError
        best = None
        for lineno, doc in self._lines():
            if doc.get("type") != "ex":
                continue
            if (tuple(doc.get("sizes", ())) != inst.part_sizes
                    or doc.get("q") != inst.q or doc.get("t") != inst.t
                    or doc.get("status") != "exact"):
                continue
            try:
                witness = PartitionedGraph.from_document(doc["witness"])
                if witness_hash(witness) != doc.get("witness_sha256"):
                    raise OracleError("witness hash mismatch")
                rec = ExRecord(ExInstance(tuple(doc["sizes"]), doc["q"], doc["t"]),
                               doc["value"], witness, doc["status"])
                rec.check()
            except Exception as exc:   # noqa: BLE001
                warnings.warn(f"{self.path}:{lineno}: invalid ex record skipped ({exc})")
                continue
            best = rec
        return best

    def put_ex(self, rec) -> None:
        self._append({
            "type": "ex",
            "sizes": list(rec.instance.part_sizes),
            "q": rec.instance.q,
            "t": rec.instance.t,
            "value": rec.value,
            "status": rec.status,
            "witness": rec.witness.to_document(),
            "witness_sha256": witness_hash(rec.witness),
        })
