"""The result cache's per-process index: tied to the file's bytes, checked
once per distinct line, and fed by other processes' appends."""

import multiprocessing
import os
import random
import warnings

from turan_workbench import zarankiewicz
from turan_workbench.cache import ResultCache, _Index, witness_hash
from turan_workbench.extremal import ExInstance, ex_exact
from turan_workbench.graphs import canonical_json
from turan_workbench.zarankiewicz import Record, ZarKey, z_exact

JOIN_TIMEOUT_S = 60


def _append_zar_records(path, keys, barrier=None):
    """Compute z for each key, then append the records (after the barrier,
    when one is given, so that two writers append at the same time)."""
    records = [z_exact(ZarKey.of(sizes, t)) for sizes, t in keys]
    if barrier is not None:
        barrier.wait(JOIN_TIMEOUT_S)
    store = ResultCache(path)
    for rec in records:
        store.put_zar(rec)


def _run_writers(*jobs):
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_append_zar_records, args=job) for job in jobs]
    for p in procs:
        p.start()
    for p in procs:
        p.join(JOIN_TIMEOUT_S)
    for p in procs:
        assert not p.is_alive() and p.exitcode == 0
        p.close()


def _lookup(store, key):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hit = store.get_zar(key)
    return hit, [str(w.message) for w in caught]


def test_same_size_rewrite_is_not_served_from_a_stale_index(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = ResultCache(path)
    key = ZarKey.of((2, 2), 2)
    z_exact(key, cache=store)
    good = path.read_bytes()
    hit, _ = _lookup(store, key)
    assert hit is not None and hit.value == 3
    # the same length and the same mtime: only the bytes tell the files apart
    stat = path.stat()
    bad = good.replace(b'"value":3', b'"value":4')
    assert len(bad) == len(good) and bad != good
    path.write_bytes(bad)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    hit, messages = _lookup(store, key)
    assert hit is None
    assert any("invalid" in m for m in messages)
    path.write_bytes(good)
    hit, messages = _lookup(store, key)
    assert hit is not None and hit.value == 3 and not messages


def test_each_distinct_line_is_checked_once(tmp_path, monkeypatch):
    checks = []
    def counted(self, real=Record.check):
        checks.append(self)
        real(self)
    monkeypatch.setattr(Record, "check", counted)
    path = tmp_path / "cache.jsonl"
    z_exact(ZarKey.of((3, 3), 2), cache=ResultCache(path))
    ex_exact(ExInstance((1, 1, 1), 3, 1), cache=ResultCache(path))
    checks.clear()      # the searches check what they compute
    for _ in range(3):
        store = ResultCache(path)   # a new object, as each CLI command makes
        assert store.get_zar(ZarKey.of((3, 3), 2)).value == 6
        assert store.get_ex(ExInstance((1, 1, 1), 3, 1)).value == 2
    assert len(checks) == 2
    # the same bytes again after a rewrite still need no second check
    path.write_bytes(path.read_bytes())
    assert ResultCache(path).get_zar(ZarKey.of((3, 3), 2)).value == 6
    assert len(checks) == 2


def test_returned_record_does_not_alias_the_memo(tmp_path):
    path = tmp_path / "cache.jsonl"
    z_exact(ZarKey.of((2, 2), 2), cache=ResultCache(path))
    hit = ResultCache(path).get_zar(ZarKey.of((2, 2), 2))
    hit.value = 99
    assert ResultCache(path).get_zar(ZarKey.of((2, 2), 2)).value == 3


def test_two_processes_append_at_once(tmp_path):
    path = tmp_path / "cache.jsonl"
    keys_a = [((m, n), 2) for n in range(1, 6) for m in range(n, 6)]
    keys_b = [((m, n), 3) for n in range(1, 6) for m in range(n, 6)]
    barrier = multiprocessing.get_context("spawn").Barrier(2)
    _run_writers((str(path), keys_a, barrier), (str(path), keys_b, barrier))
    assert path.read_bytes().count(b"\n") == len(keys_a) + len(keys_b)
    store = ResultCache(path)
    for sizes, t in keys_a + keys_b:
        key = ZarKey.of(sizes, t)
        hit, messages = _lookup(store, key)
        assert hit is not None and not messages
        assert hit.value == z_exact(key).value


def test_indexed_cache_sees_another_process_append(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = ResultCache(path)
    z_exact(ZarKey.of((3, 3), 2), cache=store)
    assert store.get_zar(ZarKey.of((3, 3), 2)).value == 6
    assert store.get_zar(ZarKey.of((4, 4), 2)) is None     # indexed, and a miss
    _run_writers((str(path), [((4, 4), 2)]))
    hit, messages = _lookup(store, ZarKey.of((4, 4), 2))
    assert hit is not None and hit.value == 9 and not messages
    assert store.get_zar(ZarKey.of((3, 3), 2)).value == 6


def test_torn_tail_is_looked_at_until_a_writer_ends_it(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = ResultCache(path)
    z_exact(ZarKey.of((2, 2), 2), cache=store)
    line = path.read_bytes()
    path.write_bytes(line + line[:-1])      # a second copy, its newline not yet written
    hit, messages = _lookup(store, ZarKey.of((2, 2), 2))
    assert hit is not None and not messages
    path.write_bytes(line + line[:20])      # torn
    hit, messages = _lookup(store, ZarKey.of((2, 2), 2))
    assert hit is not None and any("corrupt" in m for m in messages)
    path.write_bytes(line * 2)              # the writer finished the line
    hit, messages = _lookup(store, ZarKey.of((2, 2), 2))
    assert hit is not None and not messages


def test_incremental_index_equals_a_fresh_build():
    # appends index only their new lines; a torn tail, its completion, a
    # rewrite of the same length and a truncation rebuild the index; after
    # every step the index equals one built from the same bytes
    rng = random.Random(17)
    lines = [b'{"type":"zar","sizes":[%d,%d],"t":2,"status":"exact","value":%d}'
             % (rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 9))
             for _ in range(12)]
    lines += [b'{"type":"ex","sizes":[2,2,2],"q":3,"t":1,"status":"exact","value":8}',
              b'{"type":"zar","sizes":[2,2],"t":2,"status":"lower_bound_only"}',
              b"{not json", b"[1, 2]", b""]
    index = _Index()
    data = b""
    steps = {"append": 0, "rebuild": 0}
    for _ in range(400):
        step = rng.choice(["append", "append", "torn", "complete", "rewrite", "truncate"])
        if step == "append" or not data:
            data += rng.choice(lines) + b"\n"
        elif step == "torn":
            line = rng.choice(lines)
            data += line[:rng.randint(0, len(line))]
        elif step == "complete":
            data += b"\n"
        elif step == "rewrite":
            i = rng.randrange(len(data))
            data = data[:i] + bytes([rng.choice(b'0123456789"{}')]) + data[i + 1:]
        else:
            data = data[:rng.randrange(len(data))]
        old = index.data
        steps["append" if old.endswith(b"\n") and data.startswith(old) else "rebuild"] += 1
        index.refresh(data)
        fresh = _Index()
        fresh.refresh(data)
        assert (index.entries, index.corrupt) == (fresh.entries, fresh.corrupt)
    assert min(steps.values()) >= 100


def test_z_and_ex_with_q_2_share_one_record(tmp_path):
    # z_t is ex(...; K_2(t)): whichever is asked first, the other is a hit on
    # its line, and a q = 2 record is written as a zar line
    zar_first = tmp_path / "zar.jsonl"
    rec = z_exact(ZarKey.of((2, 2, 2), 2), cache=ResultCache(zar_first))
    inst = ExInstance((2, 2, 2), 2, 2)
    hit = ResultCache(zar_first).get_ex(inst)
    assert (hit.key, hit.value, hit.witness, hit.status) == (inst, 7, rec.witness, "exact")
    assert ex_exact(inst, cache=ResultCache(zar_first)) == hit
    assert zar_first.read_bytes().count(b"\n") == 1 and b'"type":"zar"' in zar_first.read_bytes()
    ex_first = tmp_path / "ex.jsonl"
    rec = ex_exact(ExInstance((4, 4), 2, 2), cache=ResultCache(ex_first))
    key = ZarKey.of((4, 4), 2)
    hit = ResultCache(ex_first).get_zar(key)
    assert (hit.key, hit.value, hit.witness) == (key, 9, rec.witness)
    assert z_exact(key, cache=ResultCache(ex_first)) == hit
    assert ex_first.read_bytes().count(b"\n") == 1 and b'"type":"zar"' in ex_first.read_bytes()
    # another q is another quantity
    assert ResultCache(zar_first).get_ex(ExInstance((2, 2, 2), 3, 2)) is None


def test_lines_of_either_tag_answer_both_fronts(tmp_path, monkeypatch):
    # lines as the cache wrote them before a q = 2 record became a zar line:
    # a zar line, an ex line with q >= 3 and an ex line with q = 2 (which
    # `ex exact --q 2` wrote) are hits for both lookups and both fronts
    def line(tag, inst, value):
        rec = z_exact(inst)
        assert rec.value == value
        doc = {"type": tag, "sizes": list(inst.part_sizes), "t": inst.t,
               "value": value, "status": "exact",
               "witness": rec.witness.to_document(),
               "witness_sha256": witness_hash(rec.witness)}
        if tag == "ex":
            doc["q"] = inst.q
        return canonical_json(doc).encode()

    cases = [("zar", ZarKey.of((3, 3), 2), 6), ("ex", ExInstance((1, 1, 1), 3, 1), 2),
             ("ex", ExInstance((4, 4), 2, 2), 9), ("ex", ExInstance((2, 2, 2), 2, 2), 7)]
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"".join(line(*case) for case in cases))
    data = path.read_bytes()

    def no_search(*args, **kwargs):
        raise AssertionError("searched an instance the cache holds")
    monkeypatch.setattr(zarankiewicz, "exact_record", no_search)
    for _, inst, value in cases:
        store = ResultCache(path)
        answers = [store.get_zar(inst), store.get_ex(inst),
                   z_exact(inst, cache=store), ex_exact(inst, cache=store)]
        assert answers[0].value == value and answers[0].key == inst
        assert all(answer == answers[0] for answer in answers[1:])
    assert path.read_bytes() == data     # hits append nothing
