import hashlib
import io
import json
import random
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from turan_workbench.cache import ResultCache
from turan_workbench.cli import (EXIT_BUDGET, EXIT_FOUND, EXIT_OK, EXIT_USAGE, _parse,
                                 build_parser, cli_dispatch, load_graph, save_graph)
from turan_workbench.graphs import PartitionedGraph, canonical_json
from turan_workbench.zarankiewicz import ZarKey, kst_upper, z_exact


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_formulas(capsys):
    code, out = run(capsys, "formulas", "turan", "--r", "3", "--k", "5")
    assert code == EXIT_OK and out.strip() == "8"
    code, out = run(capsys, "formulas", "g", "--n", "2", "--r", "2", "--k", "3",
                    "--t", "2", "--z", "3")
    assert out.strip() == "11"
    code, out = run(capsys, "formulas", "chromatic", "--k", "3", "--q", "4", "--t", "2")
    assert out.strip() == "3"


def test_usage_error_exit_code(capsys):
    assert cli_dispatch(["nonsense"]) == EXIT_USAGE
    assert cli_dispatch(["zar", "exact", "--t", "0", "--sizes", "2,2"]) == EXIT_USAGE
    # past the exact-mode guard on the bipartite row count
    assert cli_dispatch(["zar", "exact", "--sizes", "64,64", "--t", "2",
                         "--budget", "1"]) == EXIT_USAGE


def _parsed(parse, argv):
    """The namespace ``parse`` makes of argv, or its exit code, with what it
    printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_commands_parse_as_the_top_level_parser_parses_them(tmp_path, capsys):
    # cli_dispatch parses a known verb with that verb's own parser; every
    # namespace, help text and usage error must be the top-level parser's,
    # bytes and exit code alike
    g = str(tmp_path / "g.json")
    save_graph(PartitionedGraph([2, 2], [(0, 2)]), g)
    zar = ["zar", "exact", "--sizes", "2,2", "--t", "2", "--json"]
    free = ["check-free", g, "--pattern", "kqt", "--q", "2", "--t", "1"]
    cases = [[], ["--help"], ["-h", "zar"], ["nonsense"], ["--json"], ["zar"],
             ["zar", "bogus", "--t", "2"], zar, zar + ["extra"], zar + ["--", "x"],
             zar + ["--bogus"], zar + ["--budget", "-1"], ["zar", "exact", "--siz", "2,2"],
             ["check-free", "--help"], free, free + ["stray"], free[:2] + free[1:],
             ["formulas"], ["formulas", "turan", "-h"], ["formulas", "turan", "--r", "3"],
             ["formulas", "turan", "--r", "3", "--k", "5"],
             ["formulas", "turan", "--r", "3", "--k", "5", "extra"],
             ["ex", "turan", "--n", "1", "--k", "3", "--r", "2", "x", "y"],
             ["ex", "exact", "--sizes", "2,2", "--q", "2", "--max", "3"], ["ex", "bogus"],
             ["construct", "stack", "--n", "2", "--out", "s.json"], ["construct", "-h"],
             ["analyze", "core", g, "--r", "2", "--spec", "s.json", "--t", "3"]]
    for argv in cases:
        assert _parsed(_parse, argv) == _parsed(build_parser().parse_args, argv), argv
    # a stray argument is the top-level parser's usage error
    assert cli_dispatch(free + ["stray"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: turanwb [-h]")
    for argv, code in (([], EXIT_USAGE), (["nonsense"], EXIT_USAGE), (["--help"], EXIT_OK),
                       (["check-free", "--help"], EXIT_OK)):
        assert cli_dispatch(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out + captured.err == "".join(_parsed(_parse, argv)[1:]), argv


def test_missing_option_is_a_usage_error(tmp_path, capsys):
    # each verb's parser requires the options that verb needs, and argparse's
    # message names the missing ones after the usage line (exit 3); --q is
    # needed by check-free's kqt pattern alone, so it is checked inline
    g = tmp_path / "g.json"
    save_graph(PartitionedGraph([2, 2], [(0, 2)]), g)
    out = str(tmp_path / "out.json")
    required = "error: the following arguments are required: "
    for argv, message in (
            (["check-free", str(g), "--pattern", "kqt", "--t", "2"],
             "error: --pattern kqt needs --q\n"),
            (["zar", "exact", "--t", "2"], required + "--sizes\n"),
            (["ex", "exact", "--q", "2"], required + "--sizes\n"),
            (["zar", "lower", "--t", "2"], required + "--n\n"),
            (["ex", "turan", "--k", "3"], required + "--n, --r\n"),
            (["ex", "compare", "--n", "2"], required + "--r, --k\n"),
            (["construct", "template", "--n", "4", "--out", out], required + "--r, --k\n"),
            (["construct", "improved", "--n", "4", "--out", out],
             required + "--r, --k, --class1\n"),
            (["construct", "stack", "--n", "2", "--out", out], required + "--a\n"),
            (["analyze", "core", str(g), "--r", "2"], required + "--spec\n")):
        assert cli_dispatch(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(message), argv
        assert "Traceback" not in captured.err, argv
    assert not (tmp_path / "out.json").exists()


def test_no_verb_accepts_an_option_it_does_not_read(tmp_path, capsys):
    # every verb has its own parser, declaring only the options it reads: an
    # option another verb of the command reads is unrecognized (exit 3),
    # before any file is read or any search runs
    g = str(tmp_path / "g.json")
    save_graph(PartitionedGraph([2, 2], [(0, 2)]), g)
    out = str(tmp_path / "out.json")
    unread = "error: unrecognized arguments: "
    for argv, extra in (
            (["formulas", "turan", "--r", "3", "--k", "5"], ["--budget", "1"]),
            (["formulas", "g", "--n", "2", "--r", "2", "--k", "3", "--t", "2", "--z", "3"],
             ["--seed", "1"]),
            (["formulas", "chromatic", "--k", "3", "--q", "4", "--t", "2"], ["--r", "2"]),
            (["construct", "template", "--n", "4", "--r", "2", "--k", "3", "--out", out],
             ["--t", "3"]),
            (["construct", "c4free", "--n", "4", "--t", "2", "--out", out], ["--r", "2"]),
            (["construct", "basic", "--n", "4", "--r", "2", "--k", "3", "--class1", g,
              "--out", out], ["--a", "2"]),
            (["construct", "improved", "--n", "4", "--r", "2", "--k", "3", "--class1", g,
              "--out", out], ["--splits", "[]"]),
            (["construct", "stack", "--n", "2", "--a", "2", "--out", out], ["--k", "2"]),
            (["check-free", g, "--pattern", "kqt", "--q", "2", "--t", "1"], ["--seed", "1"]),
            (["zar", "exact", "--sizes", "2,2", "--t", "2"], ["--max", "3"]),
            (["zar", "lower", "--n", "7", "--t", "2"], ["--sizes", "7,7"]),
            (["zar", "gaps", "--t", "2"], ["--seed", "1"]),
            (["ex", "exact", "--sizes", "2,2", "--q", "2"], ["--n", "2"]),
            (["ex", "turan", "--n", "2", "--k", "3", "--r", "2"], ["--sizes", "9,9", "--q", "7"]),
            (["ex", "compare", "--n", "2", "--r", "2", "--k", "3"], ["--q", "3"]),
            (["analyze", "closest-template", g, "--r", "2"], ["--spec", "x.json"]),
            (["analyze", "classify", g, "--r", "2", "--spec", "x.json"], ["--z", "0"]),
            (["analyze", "core", g, "--r", "2", "--spec", "x.json"], ["--budget", "1"]),
            (["analyze", "structure", g, "--r", "2", "--spec", "x.json"], ["--seed", "1"]),
            # options no builder or analysis reads: no construct verb is
            # randomised, only stack searches, and neither closest-template
            # nor classify reads t
            *[(["construct", "template", "--n", "4", "--r", "2", "--k", "3", "--out", out],
               extra) for extra in (["--seed", "1"], ["--budget", "1"])],
            *[(["construct", "c4free", "--n", "4", "--t", "2", "--out", out], extra)
              for extra in (["--seed", "1"], ["--budget", "1"])],
            *[(["construct", kind, "--n", "4", "--r", "2", "--k", "3", "--class1", g,
                "--out", out], extra)
              for kind in ("basic", "improved")
              for extra in (["--seed", "1"], ["--budget", "1"])],
            (["construct", "stack", "--n", "2", "--a", "2", "--out", out], ["--seed", "1"]),
            (["analyze", "closest-template", g, "--r", "2"], ["--t", "2"]),
            (["analyze", "classify", g, "--r", "2", "--spec", "x.json"], ["--t", "2"])):
        code = cli_dispatch(argv + extra + ["--json", "--cache", str(tmp_path / "c.jsonl")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv + extra
        assert captured.err.endswith(unread + " ".join(extra) + "\n"), argv + extra
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "c.jsonl").exists()


def test_parser_reuse_keeps_commands_apart(tmp_path, capsys):
    # every cli_dispatch call of a process parses with one shared parser; an
    # option given to one command must not carry over to the next
    k23 = tmp_path / "k23.json"
    save_graph(PartitionedGraph([2, 3], [(u, v) for u in range(2) for v in range(2, 5)]), k23)
    code, text = run(capsys, "check-free", str(k23), "--pattern", "ktt", "--s", "2",
                     "--t", "3", "--json")
    assert code == EXIT_FOUND and json.loads(text)["verdict"] == "witness"   # K_{2,3}
    code, text = run(capsys, "check-free", str(k23), "--pattern", "ktt", "--t", "3",
                     "--json")
    assert code == EXIT_OK and json.loads(text)["verdict"] == "free"        # no K_{3,3}
    # a usage error leaves the shared parser fit for the next command
    assert cli_dispatch(["zar", "exact", "--sizes"]) == EXIT_USAGE
    assert cli_dispatch(["check-free", str(k23), "--pattern", "nope", "--t", "3"]) == EXIT_USAGE
    capsys.readouterr()
    code, out = run(capsys, "formulas", "turan", "--r", "3", "--k", "5")
    assert code == EXIT_OK and out.strip() == "8"
    code, text = run(capsys, "check-free", str(k23), "--pattern", "ktt", "--s", "2",
                     "--t", "3", "--json")
    assert code == EXIT_FOUND


def test_top_level_gaps_is_gone(capsys):
    # the report is `zar gaps`; the duplicate top-level command was removed
    assert cli_dispatch(["gaps", "--t", "2", "--max", "3"]) == EXIT_USAGE


def test_graph_round_trip(tmp_path):
    g = PartitionedGraph([2, 2], [(0, 2), (1, 3)])
    p = tmp_path / "g.json"
    save_graph(g, p)
    raw = p.read_bytes()
    g2 = load_graph(p)
    save_graph(g2, p)
    assert p.read_bytes() == raw
    assert g2 == g


def test_load_rejects_intra_part_edge(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(canonical_json({"parts": [2, 2], "edges": [[0, 1]]}))
    with pytest.raises(Exception):
        load_graph(p)


def test_check_free_rejects_non_integer_documents(tmp_path, capsys):
    # these once loaded as coerced graphs, K_2(1) was found and the exit was 1
    for i, text in enumerate(('{"parts":[2.5,2],"edges":[[0.9,2]]}',
                              '{"parts":"22","edges":[["1","3"]]}',
                              '{"parts":[2,2],"edges":[[true,3]]}')):
        p = tmp_path / f"bad{i}.json"
        p.write_text(text)
        code = cli_dispatch(["check-free", str(p), "--pattern", "kqt", "--q", "2",
                             "--t", "1", "--json"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, ""), text
        assert "integers" in err


def test_check_free_rejects_oversized_documents(tmp_path, capsys):
    # the part sizes are checked before anything is allocated for them
    p = tmp_path / "huge.json"
    p.write_text('{"parts":[1000000000,1],"edges":[]}')
    code = cli_dispatch(["check-free", str(p), "--pattern", "kqt", "--q", "2",
                         "--t", "1", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert "at most 65536 vertices" in err


def test_builders_reject_hosts_past_the_document_limit(tmp_path, capsys):
    # a host check-free could not read back is a usage error, before any
    # host is allocated or file written: one vertex over the limit, or two
    # for the builders on two n-sets
    class1 = tmp_path / "b.json"
    save_graph(PartitionedGraph([1, 1]), class1)
    out = tmp_path / "g.json"
    for argv in (["construct", "template", "--n", "65537", "--r", "1", "--k", "1"],
                 ["construct", "c4free", "--n", "32769", "--t", "2"],
                 ["construct", "basic", "--n", "1", "--r", "32769", "--k", "65537",
                  "--class1", str(class1)],
                 ["construct", "improved", "--n", "1", "--r", "32769", "--k", "65537",
                  "--class1", str(class1)]):
        code = cli_dispatch(argv + ["--out", str(out), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert "at most 65536 vertices" in captured.err
        assert not out.exists() and not (tmp_path / "g.json.manifest.json").exists()
    code = cli_dispatch(["zar", "lower", "--n", "32769", "--t", "2", "--json",
                         "--cache", str(tmp_path / "c.jsonl")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "at most 65536 vertices" in captured.err


def test_construct_manifest_hashes_the_written_bytes(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert cli_dispatch(["construct", "template", "--r", "2", "--k", "3", "--n", "3",
                         "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


def test_construct_and_check_free(tmp_path, capsys):
    out = tmp_path / "c4.json"
    code, _ = run(capsys, "construct", "c4free", "--n", "32", "--t", "2",
                  "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "c4.json.manifest.json").read_text())
    assert manifest["outputs"][str(out)]
    assert "seed" not in manifest and manifest["budget"] is None
    code, _ = run(capsys, "check-free", str(out), "--pattern", "ktt", "--t", "2")
    assert code == EXIT_OK
    # an octahedron yields exit 1 plus a witness
    octa = tmp_path / "octa.json"
    g = PartitionedGraph([2, 2, 2],
                         [(u, v) for u in range(6) for v in range(u + 1, 6)
                          if u // 2 != v // 2])
    save_graph(g, octa)
    code, out_text = run(capsys, "check-free", str(octa), "--pattern", "kqt",
                         "--q", "3", "--t", "2", "--json")
    assert code == EXIT_FOUND
    doc = json.loads(out_text)
    assert doc["verdict"] == "witness" and doc["classes"] == [[0, 1], [2, 3], [4, 5]]
    # every answer says how many search nodes it took, a witness too
    assert isinstance(doc["nodes"], int) and doc["nodes"] >= 1


def test_zero_sizes_and_negative_budget_are_usage_errors(tmp_path, capsys):
    # --s 0 must not fall back to K_{t,t}, and a negative budget is rejected
    # before any search starts, by every command
    k23 = tmp_path / "k23.json"
    save_graph(PartitionedGraph([2, 3], [(u, v) for u in range(2) for v in range(2, 5)]), k23)
    for argv in (["check-free", str(k23), "--pattern", "ktt", "--s", "0", "--t", "2"],
                 ["check-free", str(k23), "--pattern", "ktt", "--t", "0"],
                 ["check-free", str(k23), "--pattern", "kqt", "--q", "2", "--t", "1",
                  "--budget", "-1"],
                 ["zar", "exact", "--sizes", "2,2", "--t", "2", "--budget", "-1"],
                 ["ex", "exact", "--sizes", "2,2", "--q", "2", "--t", "1",
                  "--budget", "-5"]):
        assert cli_dispatch(argv) == EXIT_USAGE, argv
    assert capsys.readouterr().out == ""
    # a zero budget is valid: the search stops at its first node
    code, text = run(capsys, "check-free", str(k23), "--pattern", "kqt", "--q", "2",
                     "--t", "1", "--budget", "0", "--json")
    assert code == EXIT_BUDGET and json.loads(text) == {"nodes": 1,
                                                        "verdict": "budget-exceeded"}


def test_check_free_of_a_pattern_larger_than_the_graph_spends_no_node(tmp_path, capsys):
    # K_4(3) needs 12 vertices and this graph has 9, so the answer is free
    # with no node spent
    rng = random.Random(0)
    g = PartitionedGraph([3, 3, 3], [(u, v) for u in range(9) for v in range(u + 1, 9)
                                     if u // 3 != v // 3 and rng.random() < 0.85])
    path = tmp_path / "g.json"
    save_graph(g, path)
    code, text = run(capsys, "check-free", str(path), "--pattern", "kqt", "--q", "4",
                     "--t", "3", "--json")
    assert code == EXIT_OK and json.loads(text) == {"nodes": 0, "verdict": "free"}


def test_check_free_star_spends_the_budget(tmp_path, capsys):
    # a star is K_{1,t} and runs through the biclique detector, so --budget
    # bounds it and the answer counts its nodes, as for ktt
    star = tmp_path / "star.json"
    save_graph(PartitionedGraph([1, 3], [(0, 1), (0, 2), (0, 3)]), star)
    code, text = run(capsys, "check-free", str(star), "--pattern", "star", "--t", "3",
                     "--json")
    assert code == EXIT_FOUND
    assert json.loads(text) == {"classes": [[0], [1, 2, 3]], "nodes": 2,
                                "verdict": "witness"}
    code, text = run(capsys, "check-free", str(star), "--pattern", "star", "--t", "3",
                     "--budget", "0", "--json")
    assert code == EXIT_BUDGET and json.loads(text) == {"nodes": 1,
                                                        "verdict": "budget-exceeded"}


def test_check_free_budget_exit(tmp_path, capsys):
    big = tmp_path / "k9.json"
    g = PartitionedGraph([1] * 9, [(u, v) for u in range(9) for v in range(u + 1, 9)])
    save_graph(g, big)
    code, _ = run(capsys, "check-free", str(big), "--pattern", "kqt",
                  "--q", "3", "--t", "3", "--budget", "2")
    assert code == EXIT_BUDGET


def test_construct_manifest_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        run(capsys, "construct", "template", "--r", "2", "--k", "3", "--n", "4",
            "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a.json.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert list(m1["outputs"].values()) == list(m2["outputs"].values())


def test_construct_improved_cli(tmp_path, capsys):
    from turan_workbench.zarankiewicz import z_lower_construction
    b = tmp_path / "B.json"
    save_graph(z_lower_construction(32, 2).witness, b)
    out = tmp_path / "h.json"
    code, text = run(capsys, "construct", "improved", "--n", "32", "--r", "3",
                     "--k", "5", "--t", "2", "--class1", str(b),
                     "--out", str(out), "--json")
    assert code == EXIT_OK
    doc = json.loads(text)
    g = load_graph(out)
    assert doc["edges"] == g.edge_count()
    manifest = json.loads((tmp_path / "h.json.manifest.json").read_text())
    assert str(b) in manifest["inputs"]


def test_construct_stack_cli(tmp_path, capsys):
    out = tmp_path / "stack.json"
    code, text = run(capsys, "construct", "stack", "--a", "2", "--n", "2",
                     "--t", "2", "--out", str(out),
                     "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["edges"] == 4
    g = load_graph(out)
    assert g.part_sizes == (2, 2, 2)


def test_construct_stack_writes_nothing_from_a_truncated_search(tmp_path, capsys):
    # a stack of lower bounds is not the construction: exit 2 and neither the
    # graph nor its manifest, as for any search cut short by the budget
    out = tmp_path / "stack.json"
    manifest = tmp_path / "stack.json.manifest.json"
    for n in ("3", "4"):
        code = cli_dispatch(["construct", "stack", "--a", "3", "--n", n, "--t", "2",
                             "--budget", "3", "--out", str(out), "--json",
                             "--cache", str(tmp_path / "c.jsonl")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_BUDGET, ""), n
        assert "budget exhausted" in captured.err, n
        assert not out.exists() and not manifest.exists(), n
    # without a budget the output is the exact stack, byte for byte
    code, text = run(capsys, "construct", "stack", "--a", "3", "--n", "3", "--t", "2",
                     "--out", str(out), "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert code == EXIT_OK and json.loads(text)["edges"] == 14
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "5cee12ccb51fc43773890d523f9d9d59581eae916800765ed9a8d09622610118"
    params = json.loads(manifest.read_text())["parameters"]
    assert (params["base_value"], params["pair_value"]) == (13, 1)


def test_zar_gaps_exits_2_when_its_budget_runs_out(tmp_path, capsys):
    # a truncated grid cell is a search cut short, not a usage error
    code = cli_dispatch(["zar", "gaps", "--t", "2", "--max", "5", "--budget", "3",
                         "--cache", str(tmp_path / "c.jsonl"), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_BUDGET, "")
    assert captured.err.startswith("budget exhausted: ") and "z_2(5,2)" in captured.err


def test_zar_gaps_exits_2_when_an_e1_search_is_cut_short(tmp_path, capsys):
    # the one-cell grid is exact within the budget, the (E1) search for
    # z_2(2,2,2) is not: the command exits 2 and prints no row
    code = cli_dispatch(["zar", "gaps", "--t", "2", "--max", "1", "--budget", "1",
                         "--cache", str(tmp_path / "c.jsonl"), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_BUDGET, "")
    assert captured.err.startswith("budget exhausted: ") and "z_2(2,2,2)" in captured.err


def test_zar_and_gaps_cli(tmp_path, capsys):
    code, text = run(capsys, "zar", "exact", "--sizes", "4,4", "--t", "2",
                     "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert code == EXIT_OK and json.loads(text)["value"] == 9
    code, text = run(capsys, "zar", "lower", "--n", "7", "--t", "2", "--json")
    assert json.loads(text)["value"] == 21
    code, text = run(capsys, "zar", "gaps", "--t", "2", "--max", "3",
                     "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert code == EXIT_OK and json.loads(text)["e3_asserted"]


def test_zar_gaps_needs_max_of_at_least_one(tmp_path, capsys):
    # an empty grid is a usage error raised before any search, so the (E1)
    # searches write nothing to the cache
    cache = tmp_path / "c.jsonl"
    for top in ("0", "-2"):
        code = cli_dispatch(["zar", "gaps", "--t", "2", "--max", top,
                             "--cache", str(cache), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), top
        assert captured.err.startswith("error: "), top
        assert not cache.exists() or cache.read_text() == "", top


def test_zar_gaps_checks_the_size_guard_before_searching(tmp_path, capsys):
    # the grid's largest key (13, 13) has 2^13 rows, over the row engine's
    # guard: the command fails before it searches or caches a smaller cell
    cache = tmp_path / "c.jsonl"
    code = cli_dispatch(["zar", "gaps", "--t", "13", "--max", "13",
                         "--cache", str(cache), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "exact-mode size guard" in captured.err
    assert not cache.exists() or cache.read_text() == ""


def test_size_guard_follows_the_instance(tmp_path, capsys):
    # two parts with q = 2 take the row engine's guard whatever the command:
    # (9, 9) has 81 cross pairs, over the pair engine's 64, but a row search
    # that runs out of budget gives a lower bound
    cache = str(tmp_path / "c.jsonl")
    code, text = run(capsys, "ex", "exact", "--sizes", "9,9", "--q", "2", "--t", "2",
                     "--budget", "1", "--cache", cache, "--json")
    assert code == EXIT_BUDGET and json.loads(text)["status"] == "lower_bound_only"
    # three parts take the pair engine's guard, zar keys too: (5, 5, 5) has
    # 75 cross pairs
    for argv in (["zar", "exact", "--sizes", "5,5,5", "--t", "2", "--budget", "1"],
                 ["ex", "exact", "--sizes", "5,5,5", "--q", "2", "--t", "2"]):
        code = cli_dispatch(argv + ["--cache", cache, "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert "75 cross pairs" in captured.err, argv


def test_truncated_answers_report_an_upper_bound(tmp_path, capsys):
    # a search cut short by the budget reports the host's static cap and
    # exits 2: for (4,4,4)/K_3 Turan's bound t_2(12) = 36, at least the
    # value 32; an exact answer keeps its keys
    cache = str(tmp_path / "c.jsonl")
    code, text = run(capsys, "ex", "exact", "--sizes", "4,4,4", "--q", "3", "--t", "1",
                     "--budget", "1000", "--cache", cache, "--json")
    rep = json.loads(text)
    assert code == EXIT_BUDGET and rep["status"] == "lower_bound_only"
    assert rep["upper_bound"] == 36 >= 32 >= rep["value"]
    # two parts with q = 2: the row engine's KST bound
    code, text = run(capsys, "zar", "exact", "--sizes", "9,9", "--t", "2",
                     "--budget", "100", "--cache", cache, "--json")
    rep = json.loads(text)
    assert code == EXIT_BUDGET and rep["upper_bound"] == kst_upper(9, 9, 2) >= 29
    code, text = run(capsys, "ex", "exact", "--sizes", "3,3,3", "--q", "3", "--t", "1",
                     "--cache", cache, "--json")
    assert code == EXIT_OK and sorted(json.loads(text)) == [
        "q", "sizes", "status", "t", "value", "witness_sha256"]
    # a truncated Turan identity decides nothing: holds is null, exit 2
    code, text = run(capsys, "ex", "turan", "--n", "4", "--k", "3", "--r", "2",
                     "--budget", "100", "--cache", cache, "--json")
    rep = json.loads(text)
    assert code == EXIT_BUDGET and rep["holds"] is None
    assert rep["upper_bound"] == 36 >= 32 >= rep["search_value"]
    code, text = run(capsys, "ex", "turan", "--n", "1", "--k", "3", "--r", "2",
                     "--cache", cache, "--json")
    assert code == EXIT_OK and sorted(json.loads(text)) == [
        "formula_value", "holds", "k", "n", "r", "search_value", "status"]
    # ex compare with both searches cut short: no gap to g, exit 2; the ex
    # search's cap is the 54 cross pairs of (3,3,3,3)
    code, text = run(capsys, "ex", "compare", "--n", "3", "--r", "2", "--k", "4",
                     "--t", "2", "--budget", "100", "--cache", cache, "--json")
    rep = json.loads(text)
    assert code == EXIT_BUDGET and rep["gap_to_g"] is None
    assert rep["ex_status"] == rep["g_z_provenance"] == "lower_bound_only"
    assert rep["upper_bound"] == 54 >= rep["ex_value"]


def test_deep_inputs_inside_the_size_guards_answer(tmp_path, capsys):
    # the row engine keeps one stack entry per row, not one Python frame, and
    # the biclique detector nests min(s, t) calls, so neither input reaches
    # the interpreter's recursion limit; (1024, 4) is inside the row
    # engine's size guard, and the star's K_{1000,1} is found by fixing its
    # centre, the s-class listed first
    star = tmp_path / "star.json"
    save_graph(PartitionedGraph([1, 1001], [(0, v) for v in range(1, 1002)]), star)
    code, text = run(capsys, "check-free", str(star), "--pattern", "ktt", "--s", "1000",
                     "--t", "1", "--json")
    assert code == EXIT_FOUND and json.loads(text) == {
        "verdict": "witness", "classes": [list(range(1, 1001)), [0]], "nodes": 2}
    code, text = run(capsys, "zar", "exact", "--sizes", "1024,4", "--t", "2",
                     "--cache", str(tmp_path / "c.jsonl"), "--json")
    rep = json.loads(text)
    assert code == EXIT_OK and (rep["value"], rep["status"]) == (1030, "exact")


def test_searches_past_the_recursion_limit_are_usage_errors(tmp_path, capsys):
    # the K_q(t) detector nests about one call per vertex it places; under a
    # recursion limit 30 frames above this test's, the K_20(2) of twenty
    # parts of two is past it: the command answers nothing, which is exit 3
    # with an error line, not exit 1 (witness found) with a traceback
    g = tmp_path / "k20.json"
    save_graph(PartitionedGraph([2] * 20, [(u, v) for u in range(40) for v in range(u + 1, 40)
                                           if u // 2 != v // 2]), g)
    argv = ["check-free", str(g), "--pattern", "kqt", "--q", "20", "--t", "2", "--json"]
    code, text = run(capsys, *argv)           # builds the shared parser, too
    assert code == EXIT_FOUND and json.loads(text)["classes"] == [
        [2 * i, 2 * i + 1] for i in range(20)]
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        code = cli_dispatch(argv)
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith("error: ") and "recursion" in captured.err
    assert "Traceback" not in captured.err
    # the process stays fit for the next command
    code, text = run(capsys, *argv)
    assert code == EXIT_FOUND and json.loads(text)["verdict"] == "witness"


def test_zar_exact_t1_cli(capsys):
    code, text = run(capsys, "zar", "exact", "--sizes", "3,2", "--t", "1", "--json")
    assert code == EXIT_OK and json.loads(text)["value"] == 0


def test_ex_cli(tmp_path, capsys):
    code, text = run(capsys, "ex", "turan", "--n", "1", "--k", "4", "--r", "2",
                     "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert code == EXIT_OK and json.loads(text)["holds"]
    code, text = run(capsys, "ex", "exact", "--sizes", "2,2", "--q", "2",
                     "--t", "2", "--cache", str(tmp_path / "c.jsonl"), "--json")
    assert json.loads(text)["value"] == 3


def test_ex_exact_sizes_share_one_record_in_any_order(tmp_path, capsys):
    # ex exact sorts its sizes, so both orders run one search and hit one line
    cache = tmp_path / "c.jsonl"
    outs = [run(capsys, "ex", "exact", "--sizes", sizes, "--q", "3", "--t", "1",
                "--json", "--cache", str(cache)) for sizes in ("2,3,3", "3,3,2")]
    assert outs[0] == outs[1] and outs[0][0] == EXIT_OK
    assert json.loads(outs[0][1])["value"] == 15
    assert len(cache.read_bytes().splitlines()) == 1


def test_cache_hits_reuse_the_verified_witness_hash(tmp_path, capsys, monkeypatch):
    # a hit prints the witness_sha256 the cache verified on its line, byte for
    # byte what the miss printed, without serialising the witness again
    cache = str(tmp_path / "c.jsonl")
    commands = [["zar", "exact", "--sizes", "3,3", "--t", "2"],
                ["ex", "exact", "--sizes", "2,2,1", "--q", "3", "--t", "1"]]
    first = [run(capsys, *argv, "--cache", cache, "--json") for argv in commands]
    for argv in commands:       # the first lookup of each line verifies it
        run(capsys, *argv, "--cache", cache, "--json")
    serialised = []
    real = PartitionedGraph.canonical_json
    monkeypatch.setattr(PartitionedGraph, "canonical_json",
                        lambda g: serialised.append(g) or real(g))
    again = [run(capsys, *argv, "--cache", cache, "--json") for argv in commands]
    assert again == first and all(code == EXIT_OK for code, _ in again)
    assert serialised == []
    assert json.loads(again[0][1])["witness_sha256"] == json.loads(
        (tmp_path / "c.jsonl").read_text().splitlines()[0])["witness_sha256"]


def test_analyze_cli(tmp_path, capsys):
    from turan_workbench.constructions import TemplateSpec, build_template
    spec = TemplateSpec.standard(2, 3, 4)
    g = build_template(spec)
    gpath = tmp_path / "t.json"
    save_graph(g, gpath)
    spath = tmp_path / "spec.json"
    spath.write_text(canonical_json(spec.to_document()))
    code, text = run(capsys, "analyze", "closest-template", str(gpath),
                     "--r", "2", "--json")
    doc = json.loads(text)
    assert code == EXIT_OK and (doc["distance"], doc["lower_bound"], doc["gap"]) == (0, 0, 0)
    assert doc["heuristic"] is False
    code, text = run(capsys, "analyze", "classify", str(gpath), "--r", "2",
                     "--spec", str(spath), "--epsilon", "1/2", "--json")
    doc = json.loads(text)
    assert code == EXIT_OK and doc["ambiguous"] == []
    code, text = run(capsys, "analyze", "structure", str(gpath), "--r", "2",
                     "--t", "2", "--spec", str(spath), "--json")
    assert code == EXIT_OK and json.loads(text)["class1_ktt_free"]


def test_analyze_rejects_nonpositive_t_and_r(tmp_path, capsys):
    # t < 1 or r < 1 is a usage error, not a silent t = 2 or a core bound < 0
    from turan_workbench.constructions import TemplateSpec, build_template
    spec = TemplateSpec.standard(2, 3, 4)
    gpath = tmp_path / "t.json"
    save_graph(build_template(spec), gpath)
    spath = tmp_path / "spec.json"
    spath.write_text(canonical_json(spec.to_document()))
    # closest-template reads no --t and no --spec; the message tells the
    # check from a parse error, which exits 3 too
    cases = [["core", "--spec", str(spath)] + extra
             for extra in (["--t", "0"], ["--t", "-1"], ["--r", "0"])]
    cases.append(["closest-template", "--r", "0"])
    for verb, *extra in cases:
        argv = ["analyze", verb, str(gpath), "--r", "2", "--json"] + extra
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert "need r >= 1 and t >= 1" in captured.err, argv
    # without --t the analysis runs with t = 2
    code, text = run(capsys, "analyze", "core", str(gpath), "--r", "2",
                     "--spec", str(spath), "--json")
    assert code == EXIT_OK and json.loads(text)["bound"] == str(2 * 8 ** 4)


def test_closest_template_refuses_too_many_pairs_before_any_shape(tmp_path, capsys,
                                                                  monkeypatch):
    # 30 one-vertex parts at r = 2 are 77,558,760 shapes (about 17 minutes of
    # search): the guard counts them and exits 3 before it builds one
    from turan_workbench import stability

    def no_shape(*args):
        raise AssertionError("built a shape")
    monkeypatch.setattr(stability, "_Shape", no_shape)
    path = tmp_path / "g.json"
    save_graph(PartitionedGraph([1] * 30, []), path)
    code = cli_dispatch(["analyze", "closest-template", str(path), "--r", "2", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert "more than 1000000 (shape, owner map) pairs for k=30, r=2" in captured.err


def test_ex_rejects_q_below_two_before_searching(tmp_path, capsys, monkeypatch):
    # K_1(t) is any t vertices, so q = 1 is a usage error, raised before
    # the branch and bound would run
    from turan_workbench import search

    def no_search(*args, **kwargs):
        raise AssertionError("searched a q = 1 instance")
    monkeypatch.setattr(search, "maximize_free", no_search)
    cache = str(tmp_path / "c.jsonl")
    for argv in (["ex", "exact", "--sizes", "2,2", "--q", "1", "--t", "1"],
                 ["ex", "turan", "--n", "2", "--k", "3", "--r", "0"]):
        code = cli_dispatch(argv + ["--json", "--cache", cache])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert "q must be >= 2" in captured.err, argv


def test_ex_checks_parameters_before_searching(tmp_path, capsys, monkeypatch):
    # parameters outside the construction's or the Turan formula's range
    # are usage errors raised before any search, so the cache gets no line
    from turan_workbench import search

    def no_search(*args, **kwargs):
        raise AssertionError("searched an out-of-range instance")
    monkeypatch.setattr(search, "maximize_free", no_search)
    cache = tmp_path / "c.jsonl"
    for argv, message in (
            (["ex", "compare", "--n", "2", "--r", "2", "--k", "5", "--t", "2"],
             "need r < k <= 2r"),
            (["ex", "turan", "--n", "2", "--k", "3", "--r", "4"], "need 1 <= r <= k"),
            (["ex", "compare", "--n", "2", "--r", "2", "--k", "3", "--t", "1"],
             "need t >= 2")):
        code = cli_dispatch(argv + ["--json", "--cache", str(cache)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert message in captured.err, argv
        assert not cache.exists(), argv


def test_malformed_template_specs_are_usage_errors(tmp_path, capsys):
    # a spec or split that is not made of integers of the right shape exits
    # 3 with a message, not 1 (the witness-found code) with a traceback
    from turan_workbench.constructions import TemplateSpec, build_template
    gpath = tmp_path / "g.json"
    save_graph(build_template(TemplateSpec.standard(2, 3, 4)), gpath)
    head = {"r": 2, "k": 3, "n": 4, "cluster_classes": [0, 1, -1]}
    for i, doc in enumerate(({"r": 2}, [1], dict(head, pieces=[[0, 2, "x"]]),
                             dict(head, pieces=[[0, 2]]),
                             dict(head, r=True, pieces=[[0, 2, 4]]))):
        spath = tmp_path / f"s{i}.json"
        spath.write_text(json.dumps(doc))
        code = cli_dispatch(["analyze", "classify", str(gpath), "--r", "2",
                             "--spec", str(spath)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), doc
        assert "template spec" in captured.err, doc
    for extra in (["--r", "2", "--splits", "[[1]]"], ["--r", "0"]):
        code = cli_dispatch(["construct", "template", "--n", "4", "--k", "3",
                             "--out", str(tmp_path / "t.json")] + extra)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), extra
        assert captured.err.startswith("error: "), extra


def test_analyze_checks_the_spec_and_z_against_the_graph(tmp_path, capsys):
    # a spec for another r, k or n, and a --z vertex outside the graph, are
    # usage errors, not a traceback, another r's bound or a phantom vertex
    from turan_workbench.constructions import TemplateSpec, build_template
    gpath = tmp_path / "g.json"
    save_graph(build_template(TemplateSpec.standard(2, 3, 4)), gpath)
    ragged = tmp_path / "ragged.json"     # parts 4, 4, 3: no spec fits it
    save_graph(PartitionedGraph([4, 4, 3], [(0, 4), (1, 9)]), ragged)
    specs = {}
    for name, (r, k, n) in {"ok": (2, 3, 4), "k4": (2, 4, 4), "r3": (3, 3, 4),
                            "n2": (2, 3, 2)}.items():
        specs[name] = tmp_path / f"{name}.json"
        specs[name].write_text(canonical_json(TemplateSpec.standard(r, k, n).to_document()))
    cases = [
        ("classify", "k4", "2", []),      # IndexError before the check
        ("core", "ok", "3", []),          # printed the r = 3 bound
        ("core", "r3", "2", []),
        ("structure", "n2", "2", []),
        ("structure", "ok", "2", ["--z", "999"]),   # counted in z_size
    ]
    for verb, spec, r, extra in cases:
        argv = ["analyze", verb, str(gpath), "--r", r, "--spec", str(specs[spec]),
                "--json"] + extra
        assert run(capsys, *argv) == (EXIT_USAGE, ""), argv
        argv[2] = str(ragged)                # IndexError in classify before
        assert run(capsys, *argv) == (EXIT_USAGE, ""), argv
    code, text = run(capsys, "analyze", "structure", str(gpath), "--r", "2",
                     "--spec", str(specs["ok"]), "--z", "0,11", "--json")
    assert code == EXIT_OK and json.loads(text)["z_size"] == 2


def test_analyze_rejects_specs_outside_the_template_family(tmp_path, capsys):
    # a spec whose piece names a class past r, or that puts two whole
    # clusters in one class, is not a template: every spec-reading verb
    # exits 3 with an error line, core included (it raised IndexError on
    # the first and answered the second)
    from turan_workbench.constructions import TemplateSpec, build_template
    gpath = tmp_path / "g.json"
    save_graph(build_template(TemplateSpec.standard(2, 3, 4)), gpath)
    head = {"r": 2, "k": 3, "n": 4}
    docs = {"class5": dict(head, cluster_classes=[0, 1, -1], pieces=[[5, 2, 4]]),
            "two_in_one": dict(head, cluster_classes=[0, 0, -1], pieces=[[1, 2, 4]])}
    for name, doc in docs.items():
        spath = tmp_path / f"{name}.json"
        spath.write_text(json.dumps(doc))
        for verb in ("core", "classify", "structure"):
            code = cli_dispatch(["analyze", verb, str(gpath), "--r", "2",
                                 "--spec", str(spath), "--json"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_USAGE, ""), (name, verb)
            assert captured.err.startswith("error: "), (name, verb)
            assert "Traceback" not in captured.err, (name, verb)


def test_cache_path_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TURAN_WORKBENCH_CACHE", str(tmp_path / "env.jsonl"))
    cache = ResultCache()
    assert cache.path == tmp_path / "env.jsonl"
    z_exact(ZarKey.of((2, 2), 2), cache=cache)
    assert (tmp_path / "env.jsonl").exists()


def test_cache_round_trip_and_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    rec = z_exact(ZarKey.of((3, 3), 2), cache=cache)
    assert path.exists()
    hit = cache.get_zar(ZarKey.of((3, 3), 2))
    assert hit is not None and hit.value == rec.value
    # corrupt line is skipped with a warning, not silently repaired
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hit2 = cache.get_zar(ZarKey.of((3, 3), 2))
    assert hit2 is not None and hit2.value == rec.value
    assert any("corrupt" in str(w.message) for w in caught)


def test_zar_and_ex_share_one_cache_file(tmp_path):
    from turan_workbench.extremal import ExInstance, ex_exact
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    z_exact(ZarKey.of((3, 3), 2), cache=cache)
    ex_exact(ExInstance((1, 1, 1), 3, 1), cache=cache)
    types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
    assert sorted(types) == ["ex", "zar"]
    assert cache.get_ex(ExInstance((1, 1, 1), 3, 1)).value == 2
    assert cache.get_zar(ZarKey.of((3, 3), 2)).value == 6


def test_cache_rejects_tampered_witness(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    z_exact(ZarKey.of((2, 2), 2), cache=cache)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["value"] += 1          # witness no longer matches the value
    path.write_text(json.dumps(doc) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get_zar(ZarKey.of((2, 2), 2)) is None
    assert any("invalid" in str(w.message) for w in caught)


def test_cache_append_after_torn_tail(tmp_path):
    # a crashed writer left a partial last line; the next record must still
    # land on a line of its own and be readable
    path = tmp_path / "cache.jsonl"
    path.write_text('{"type": "zar", "sizes": [3')
    cache = ResultCache(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = z_exact(ZarKey.of((3, 3), 2), cache=cache)
        hit = cache.get_zar(ZarKey.of((3, 3), 2))
    assert hit is not None and hit.value == rec.value == 6
    assert any("corrupt" in str(w.message) for w in caught)   # the torn line
    assert path.read_text().count("\n") == 2


@pytest.mark.parametrize("argv", [
    ["check-free", "{dir}", "--pattern", "kqt", "--q", "3", "--t", "2"],
    ["construct", "template", "--n", "2", "--r", "2", "--k", "3", "--out", "{dir}"],
    ["zar", "exact", "--sizes", "2,2", "--t", "2", "--cache", "{dir}"],
], ids=["check-free", "construct-out", "zar-cache"])
def test_os_error_on_a_path_is_a_usage_error(capsys, tmp_path, argv):
    # a directory where a file is read or written raises an OSError; that is
    # a usage error (exit 3), not a witness (exit 1), and prints no traceback
    code = cli_dispatch([a.format(dir=tmp_path) for a in argv] + ["--json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
