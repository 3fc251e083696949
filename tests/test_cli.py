"""End-to-end runs of the command line driver: determinism, formats, exit codes."""

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import corealg
import corealg.cli
import corealg.exel_path
import corealg.ktheory
import corealg.star_algebra
from conftest import weighted_transfer_L
from corealg.cli import main
from corealg.core_endo import CoreEndo
from corealg.graph import load_graph
from corealg.hilbert_module import GraphFrameSystem
from corealg.star_algebra import StarElement, parse_element

O2_TEXT = "V v\nE e1 v v\nE e2 v v\n"
G3_TEXT = "V a\nV b\nE x a a\nE y a b\nE z b a\n"
ELEM_TEXT = "TERM 1 e1 e2\nTERM -1/3 e2.e1 e2.e1\n"
SINK_TEXT = "V a\nV b\nE x a b\n"    # a receives nothing, b emits nothing
LOOP_TEXT = "V v\nE e1 v v\n"


@pytest.fixture
def o2_file(tmp_path):
    p = tmp_path / "o2.graph"
    p.write_text(O2_TEXT)
    return str(p)


@pytest.fixture
def elem_file(tmp_path):
    p = tmp_path / "x.elem"
    p.write_text(ELEM_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body(out: str) -> str:
    """Strip the timestamped header line."""
    lines = out.splitlines()
    assert lines and lines[0].startswith("# run ")
    return "\n".join(lines[1:])


def test_graph_info(capsys, o2_file):
    code, out, err = run(capsys, "graph", "info", o2_file)
    assert code == 0 and err == ""
    assert "checks: 0 " in out and "result: computed" in out    # nothing was checked
    assert "v" in out and "regular" in out


def test_graph_info_splits_regular_and_singular(capsys, tmp_path):
    p = tmp_path / "edge.graph"
    p.write_text("V a\nV b\nE x a b\n")     # a receives nothing, b receives x
    code, out, _ = run(capsys, "graph", "info", str(p))
    assert code == 0
    assert "\nregular: b\nsingular: a\n" in out


def test_core_mul_and_norm(capsys, o2_file, elem_file):
    code, out, _ = run(capsys, "core", "mul", o2_file, elem_file, elem_file)
    assert code == 0 and out.endswith("checks: 0  passed: 0  failed: 0\nresult: computed\n")
    code, out, _ = run(capsys, "core", "norm", o2_file, elem_file)
    assert code == 0 and out.endswith("checks: 0  passed: 0  failed: 0\nresult: computed\n")
    assert "norm:" in out and "error_bound:" in out


def test_core_beta_and_iexpand(capsys, o2_file, tmp_path):
    core = tmp_path / "core.elem"
    core.write_text("TERM 1 e1 e1\nTERM 1/2 e2 e1\n")
    code, out, _ = run(capsys, "core", "beta", o2_file, str(core))
    assert code == 0 and out.endswith("checks: 0  passed: 0  failed: 0\nresult: computed\n")
    code, out, _ = run(capsys, "core", "iexpand", o2_file, str(core), "--level", "2")
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("graph_text, level, message", [
    # on O_2 the words double at every level: the level-1 word e1 e1 makes
    # 2^99 - 1 of them up to level 99, and 2^12 - 1 up to level 12
    (O2_TEXT, 99, "--level 99 plans at least 1001 words in 100 levels"),
    (O2_TEXT, 13, "--level 13 plans at least 7143 words in 14 levels"),
    # on a loop the words do not grow, but a word at level L holds 2L edges
    (LOOP_TEXT, 316, "--level 316 plans at least 316 words in 317 levels"),
    (LOOP_TEXT, 10 ** 9, "--level 1000000000 plans at least 1 words in 1000000001 levels"),
], ids=["o2-level99", "o2-level13", "loop-level316", "loop-level1e9"])
def test_iexpand_refuses_a_large_plan_at_once(capsys, tmp_path, graph_text, level, message):
    graph, elem = tmp_path / "g.graph", tmp_path / "a.elem"
    graph.write_text(graph_text)
    elem.write_text("TERM 1 e1 e1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "core", "iexpand", str(graph), str(elem), "--level", str(level))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: %s, above the limit of 100000 words times levels\n" % message
    assert corealg.cli.EXPAND_LIMIT == 100_000


@pytest.mark.parametrize("graph_text, level, words", [
    (O2_TEXT, 12, 2 ** 12 - 1), (LOOP_TEXT, 315, 315)], ids=["o2-level12", "loop-level315"])
def test_iexpand_runs_a_plan_at_the_limit(capsys, tmp_path, graph_text, level, words):
    graph, elem = tmp_path / "g.graph", tmp_path / "a.elem"
    graph.write_text(graph_text)
    elem.write_text("TERM 1 e1 e1\n")
    g = load_graph(graph_text)
    assert corealg.cli._expansion_words(g, parse_element(g, "TERM 1 e1 e1\n"), level,
                                        10 ** 9) == words
    assert words * (level + 1) <= corealg.cli.EXPAND_LIMIT
    code, out, _ = run(capsys, "core", "iexpand", str(graph), str(elem), "--level", str(level))
    assert code == 0 and out.endswith("result: PASS\n")


@pytest.mark.parametrize("graph_text, elem_text", [
    (O2_TEXT, "TERM 1 e1 e1\nTERM 1/2 e2 e1\n"),
    (O2_TEXT, ELEM_TEXT),
    (O2_TEXT, "TERM 1 e1 e1\n"),
    (O2_TEXT, ""),
    (G3_TEXT, "TERM 1 x y\nTERM 2 @a @a\nTERM 1 z.y z.y\n"),
    (SINK_TEXT, "TERM 1 x x\nTERM 1 @b @b\nTERM 1 @a @a\n"),
], ids=["core", "elem", "e1", "no_terms", "g3", "sink"])
def test_iexpand_plan_counts_the_words_it_forms(monkeypatch, graph_text, elem_text):
    # the plan is the number of words i_expand puts into its levels before
    # merging: for each term alone, the term and one word per accumulate call
    g = load_graph(graph_text)
    a = parse_element(g, elem_text)
    pushed = []
    accumulate = corealg.star_algebra.accumulate
    monkeypatch.setattr(corealg.star_algebra, "accumulate",
                        lambda *args: pushed.append(1) or accumulate(*args))
    for level in range(5):
        if any(len(mu) > level for (mu, _), _ in a.items()):
            continue        # not in C_level: i_expand refuses it
        words = 0
        for word, c in a.items():
            pushed.clear()
            StarElement(g, {word: c}).i_expand(level)
            words += 1 + len(pushed)
        assert corealg.cli._expansion_words(g, a, level, 10 ** 9) == words
        assert corealg.cli._expansion_words(g, a, level, 3) == min(words, 3)


def test_verify_beta_deterministic(capsys, o2_file):
    args = ("core", "verify-beta", o2_file, "--trials", "10", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert body(out1) == body(out2)
    assert "result: PASS" in out1


def test_seed_changes_cases(capsys, o2_file):
    _, out1, _ = run(capsys, "core", "verify-beta", o2_file, "--trials", "10", "--seed", "1")
    _, out2, _ = run(capsys, "core", "verify-beta", o2_file, "--trials", "10", "--seed", "2")
    assert "seed: 1" in out1 and "seed: 2" in out2


def test_parallel_flag_is_gone(o2_file):
    # sweeps run serially; the flag that ran them on threads was removed
    with pytest.raises(SystemExit) as exc:
        main(["core", "verify-beta", o2_file, "--parallel"])
    assert exc.value.code == 2


def test_verify_beta_computes_each_unit_image_once(capsys, o2_file, monkeypatch):
    # O_2 at depth 1: 4 matrix units, 16 exhaustive pairs, no random pairs.
    # beta(x) and beta(x*) once per unit, beta(xy) once per pair.
    calls = []
    original = CoreEndo.beta

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(CoreEndo, "beta", counted)
    code, out, _ = run(capsys, "core", "verify-beta", o2_file, "--depth", "1",
                       "--trials", "0")
    assert code == 0 and "16 exhaustive pairs, 0 random" in out
    assert len(calls) <= 2 * 4 + 16


def test_verify_beta_reports_a_bad_w(capsys, o2_file, monkeypatch):
    # build_W on doubled out-degrees returns W / sqrt(2): the report's W*W
    # check reads FAIL with a witness, and build_W itself raises nothing
    original = CoreEndo.build_W

    def scaled(self):
        counts = self._out_count
        self._out_count = {v: 2 * c for v, c in counts.items()}
        try:
            return original(self)
        finally:
            self._out_count = counts

    monkeypatch.setattr(CoreEndo, "build_W", scaled)
    code, out, err = run(capsys, "core", "verify-beta", o2_file, "--depth", "1",
                         "--trials", "0")
    assert code == 1 and err == ""
    assert "W is a covariance isometry: FAIL (1 checks, 1 failures)" in out
    assert "witness: W*W differs from the unit" in out
    assert out.endswith("result: FAIL\n")


def test_verify_beta_work_is_pinned(capsys, o2_file, radical_ops):
    # exact Radical work of a seeded run; word products reuse a * b and
    # s + c while the same coefficient objects come again (2329 products and
    # 715 sums before that reuse)
    code, out, _ = run(capsys, "core", "verify-beta", o2_file, "--depth", "2", "--json")
    assert code == 0 and json.loads(out)["failed"] == 0
    assert radical_ops == {"mul": 1166, "add": 209}


def test_json_output(capsys, o2_file):
    code, out, _ = run(capsys, "graph", "info", o2_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "computed" and doc["checks"] == 0
    assert doc["command"].startswith("graph info")
    assert doc["failed"] == 0
    assert "# run" not in out


def test_json_deterministic_bytes(capsys, o2_file):
    args = ("exel", "verify-transfer", o2_file, "--depth", "1",
            "--trials", "5", "--seed", "9", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "graph", "info", "/nonexistent/g.graph")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_bad_element_is_usage_error(capsys, o2_file, tmp_path):
    bad = tmp_path / "bad.elem"
    bad.write_text("TERM oops e1 e1\n")
    code, _, err = run(capsys, "core", "beta", o2_file, str(bad))
    assert code == 2 and "error:" in err


def test_large_radicands_in_element_files(capsys, o2_file, tmp_path):
    prime = tmp_path / "prime.elem"
    prime.write_text("TERM 1*sqrt(9223372036854775783) e1 e1\n")

    def too_slow(signum, frame):
        raise TimeoutError("core mul on a large prime radicand took over 5 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, out, _ = run(capsys, "core", "mul", o2_file, str(prime), str(prime))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 0 and "TERM 9223372036854775783 e1 e1" in out
    beyond = tmp_path / "beyond.elem"
    beyond.write_text("TERM sqrt(9223372036854775808) e1 e1\n")
    code, out, err = run(capsys, "core", "mul", o2_file, str(beyond), str(beyond))
    assert code == 2 and err.startswith("error: bad element file") and out == ""


def test_oversized_product_radicand_is_usage_error(capsys, o2_file, tmp_path):
    prime = tmp_path / "prime.elem"
    prime.write_text("TERM 1*sqrt(9223372036854775783) e1 e1\n")
    two = tmp_path / "two.elem"
    two.write_text("TERM 1*sqrt(2) e1 e1\n")
    code, out, err = run(capsys, "core", "mul", o2_file, str(prime), str(two))
    assert code == 2 and out == ""
    assert err.startswith("error: product: radicand 18446744073709551566 exceeds")


def test_module_and_exel_commands(capsys, o2_file):
    for args in (("module", "verify-frames", o2_file),
                 ("module", "verify-u", o2_file, "--depth", "2"),
                 ("module", "crosscheck", o2_file, "--level", "1"),
                 ("module", "verify-frames", "--n", "2", "--N", "1"),
                 ("exel", "verify-transfer", o2_file, "--depth", "1", "--trials", "5")):
        code, out, _ = run(capsys, *args)
        assert code == 0, out
        assert "result: PASS" in out


def test_uhf_demo(capsys):
    code, out, _ = run(capsys, "uhf", "demo", "--n", "2", "--N", "1", "--depth", "2")
    assert code == 0
    assert "K_0 = 0, K_1 = 0" in out and "result: PASS" in out
    code, out, _ = run(capsys, "uhf", "demo", "--n", "3", "--N", "1", "--depth", "1")
    assert code == 0
    assert "K_0 = Z/2" in out


def test_uhf_demo_reports_a_failed_stage(capsys, monkeypatch):
    # the K-theory stage checks are a section of their own; a planted failure
    # at stage 2 becomes a failed stabilization section and exit 1, with the
    # earlier sections still reported
    stage = corealg.ktheory._stage_beta_matrix

    def planted(g, endo, verts, level, report):
        t = stage(g, endo, verts, level, report)
        report.check(level != 2, lambda: "planted stage failure")
        return t

    code, out, _ = run(capsys, "uhf", "demo", "--n", "2", "--N", "1", "--json")
    assert code == 0
    assert _sections(out)["stationary K-theory of 1 vertex"] == (7, 0)
    monkeypatch.setattr(corealg.ktheory, "_stage_beta_matrix", planted)
    code, out, _ = run(capsys, "uhf", "demo", "--n", "2", "--N", "1", "--json")
    assert code == 1
    sections = _sections(out)
    assert sections["stabilization"] == (1, 1)
    assert [bad for _, bad in sections.values()].count(1) == 1
    assert "six-term corner against the bouquet model" not in sections
    assert "planted stage failure" in json.loads(out)["sections"][-1]["failures"][0]
    assert json.loads(out)["result"] == "FAIL"


def test_ktheory_graph_names_one_vertex(capsys, tmp_path):
    loop = tmp_path / "loop.graph"
    loop.write_text("V v\nE e v v\n")
    code, out, _ = run(capsys, "ktheory", "graph", str(loop), "--json")
    assert code == 0
    assert _sections(out)["stationary K-theory of 1 vertex"] == (7, 0)
    code, out, _ = run(capsys, "ktheory", "graph", str(loop))
    assert "stationary K-theory of 1 vertex: PASS" in out
    assert "1 vertices" not in out


def test_ktheory_commands(capsys, o2_file):
    code, out, _ = run(capsys, "ktheory", "graph", o2_file)
    assert code == 0
    assert "K_0" in out
    code, out, _ = run(capsys, "ktheory", "paschke", "--matrix", "6", "--af")
    assert code == 0
    assert "Z/5" in out


@pytest.mark.parametrize("matrix, det", [("6", 5), ("2,0;0,1", 0)])
def test_paschke_check_catches_a_wrong_smith_route(capsys, monkeypatch, matrix, det):
    from corealg import ktheory

    monkeypatch.setattr(ktheory, "coker_ker",
                        lambda m: (ktheory.GroupPresentation(0, (3,)), 0))
    code, out, _ = run(capsys, "ktheory", "paschke", "--matrix", matrix)
    assert code == 1 and "result: FAIL" in out
    assert "witness: det = %d but coker = Z/3, ker = Z^0" % det in out


def _with_extra_torsion(graph_k_theory):
    """graph_k_theory whose K_0 gains one torsion factor, twice the last."""
    def planted(g):
        res = graph_k_theory(g)
        k0 = res.k0
        extra = 2 * (k0.torsion[-1] if k0.torsion else 1)
        return dataclasses.replace(res, k0=corealg.ktheory.GroupPresentation(
            k0.free_rank, k0.torsion + (extra,)))
    return planted


@pytest.mark.parametrize("args, section, witness", [
    (("ktheory", "graph", "{g}"), "agreement with the transposed-matrix model",
     "stagewise Z/2/0 vs classic 0/Z^0"),
    (("uhf", "demo", "--n", "3", "--N", "1", "--depth", "1"),
     "six-term corner against the bouquet model", "corner mismatch: Z/2/0 vs Z/2 + Z/4/0"),
])
def test_k_theory_agreement_catches_an_extra_torsion_factor(capsys, monkeypatch, o2_file,
                                                            args, section, witness):
    argv = [a.format(g=o2_file) for a in args] + ["--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and _sections(out)[section] == (1, 0)
    monkeypatch.setattr(corealg.ktheory, "graph_k_theory",
                        _with_extra_torsion(corealg.ktheory.graph_k_theory))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    sections = _sections(out)
    assert sections[section] == (1, 1)
    assert [bad for _, bad in sections.values()].count(1) == 1
    failed = next(s for s in json.loads(out)["sections"] if s["name"] == section)
    assert failed["failures"] == [witness]
    assert json.loads(out)["result"] == "FAIL"


def test_dilation_verify_pass(capsys):
    code, out, _ = run(capsys, "dilation", "verify", "--matrix", "2", "--box", "3")
    assert code == 0
    assert "result: PASS" in out


def test_dilation_bad_sigma_fails_honestly(capsys):
    code, out, _ = run(capsys, "dilation", "verify", "--matrix", "2",
                       "--box", "3", "--sigma", "0;2")
    assert code == 1
    assert "result: FAIL" in out
    match = re.search(r"points (-?\d+(?:,-?\d+)*) and (-?\d+(?:,-?\d+)*)", out)
    assert match, out
    # The witness names points that really are congruent: replay it.
    from corealg.dilation import LatticeSystem, transversal_check

    p1 = tuple(int(x) for x in match.group(1).split(","))
    p2 = tuple(int(x) for x in match.group(2).split(","))
    replay = transversal_check(LatticeSystem([[2]]), [p1, p2])
    assert not replay.passed


def test_dilation_good_custom_sigma(capsys):
    code, out, _ = run(capsys, "dilation", "verify", "--matrix", "2",
                       "--box", "3", "--sigma", "0;3")
    assert code == 0, out


def test_module_entry_point(o2_file):
    # the child imports the same corealg as this process, installed or not
    src = os.path.dirname(os.path.dirname(corealg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "corealg.cli",
                           "graph", "info", o2_file],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "result: computed" in proc.stdout


@pytest.mark.parametrize("args", [
    ("core", "verify-beta", "{g}", "--depth", "0"),
    ("core", "verify-beta", "{g}", "--trials", "-1"),
    ("exel", "verify-transfer", "{g}", "--depth", "0"),
    ("exel", "verify-transfer", "{g}", "--depth", "-2"),
    ("module", "crosscheck", "{g}", "--level", "0"),
    ("uhf", "demo", "--n", "2", "--N", "1", "--depth", "-1"),
    ("dilation", "verify", "--matrix", "2", "--box", "-1", "--level", "0"),
    ("dilation", "verify", "--matrix", "2", "--box", "3", "--level", "-1"),
])
def test_out_of_range_counts_are_usage_errors(capsys, o2_file, args):
    code, out, err = run(capsys, *(a.format(g=o2_file) for a in args))
    assert code == 2, out
    assert err.startswith("error: --") and out == ""


@pytest.mark.parametrize("args, code, message", [
    (("core", "verify-beta", "{sink}"), 2, "emits no edge"),
    (("core", "beta", "{sink}", "{sink_elem}"), 2, "emits no edge"),
    (("core", "iexpand", "{sink}", "{sink_elem}"), 0, ""),
    (("exel", "verify-transfer", "{sink}"), 2, "no sinks"),
    (("module", "verify-frames", "{sink}"), 2, "no sinks"),
    (("module", "verify-u", "{sink}"), 2, "no sinks"),
    (("module", "crosscheck", "{sink}"), 2, "no sinks"),
    (("ktheory", "graph", "{sink}"), 2, "must receive an edge"),
    (("module", "verify-frames", "--n", "0", "--N", "1"), 2, "need 1 <= N <= n"),
    (("module", "verify-u", "--n", "0", "--N", "1"), 2, "need 1 <= N <= n"),
    (("uhf", "demo", "--n", "0", "--N", "1"), 2, "need 1 <= N <= n"),
    (("dilation", "verify", "--matrix", "2,0;0,0"), 2, "error: matrix is singular\n"),
    (("dilation", "verify", "--matrix", "0"), 2, "error: matrix is singular\n"),
    (("dilation", "verify", "--matrix", "1"), 0, ""),
    (("dilation", "verify", "--matrix", "-3", "--box", "2", "--level", "0"), 0, ""),
    (("dilation", "verify", "--matrix", "1,2;3,4;5,6"), 2, "must be square"),
    (("module", "crosscheck", "{o2}", "--level", "0"), 2, "--level"),
    (("ktheory", "paschke", "--matrix", "1"), 0, ""),
    (("ktheory", "paschke", "--matrix", "1", "--af"), 0, ""),
    (("ktheory", "paschke", "--matrix", "2,0;0,0"), 0, ""),
    (("ktheory", "paschke", "--matrix", "2,0;0,0", "--af"), 0, ""),
    (("ktheory", "paschke", "--matrix", "1,2,3;4,5,6", "--af"), 2, "must be square"),
    (("core", "iexpand", "{o2}", "{no_terms}", "--level", "-1"), 2, "--level"),
    (("graph", "info", "{no_vertex}"), 2, "no vertex is declared"),
    (("core", "verify-beta", "{no_vertex}"), 2, "no vertex is declared"),
    (("exel", "verify-transfer", "{no_vertex}"), 2, "no vertex is declared"),
    (("dilation", "verify", "--matrix", "2", "--sigma", ""), 1, "size 0, expected 2"),
    # |det| >= 2^63 once overflowed range() while the transversal was built
    (("dilation", "verify", "--matrix", "999999999999999999999999999999,0;"
      "0,999999999999999999999999999999"), 2, "plan at least 1619999999"),
    (("dilation", "verify", "--matrix", "99999,0;0,1", "--box", "0", "--level", "0"), 2,
     "|det| = 99999, --box 0 and --level 0 plan 20000000001 checks, above the limit of"
     " 1000000 checks\n"),
    (("dilation", "verify", "--matrix", "2", "--box", "0", "--level", "20"), 2,
     "plan at least 1048612 checks"),
])
def test_edge_inputs_end_cleanly(capsys, tmp_path, o2_file, args, code, message):
    sink = tmp_path / "sink.graph"
    sink.write_text(SINK_TEXT)
    sink_elem = tmp_path / "sink.elem"
    sink_elem.write_text("TERM 1 x x\n")
    no_terms = tmp_path / "no_terms.elem"
    no_terms.write_text("")
    no_vertex = tmp_path / "no_vertex.graph"
    no_vertex.write_text("# no V line\n")
    argv = [a.format(sink=sink, sink_elem=sink_elem, o2=o2_file, no_terms=no_terms,
                     no_vertex=no_vertex) for a in args]
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    refused = time.perf_counter() - start
    assert got == code and "Traceback" not in err, (out, err)
    assert message in (out if code == 1 else err)     # a failed check reports on stdout
    if code == 0:
        assert "result: PASS" in out and "checks: 0 " not in out    # something was checked
    elif code == 1:
        assert out.endswith("result: FAIL\n") and err == ""
    else:
        assert err.startswith("error: ") and out == ""
        assert refused < 1.0


@pytest.mark.parametrize("args", [
    ("--matrix", "2,1;0,3", "--box", "3"),
    ("--matrix", "2,1,0;0,2,1;1,0,2", "--box", "1", "--level", "2"),
    ("--matrix", "1,1;-1,1", "--box", "2", "--level", "3"),
    ("--matrix", "1", "--box", "6", "--level", "5"),
    ("--matrix", "-3", "--box", "2", "--level", "0"),
    ("--matrix", "2", "--box", "3", "--sigma", "0;3"),
    ("--matrix", "2", "--box", "3", "--sigma", "0;2;4"),
])
def test_dilation_plan_counts_the_checks_it_runs(capsys, args):
    code, out, _ = run(capsys, "dilation", "verify", *args, "--json")
    doc = json.loads(out)
    flags = dict(zip(args[::2], args[1::2]))
    b = corealg.cli.parse_int_matrix(flags["--matrix"])
    det = abs(corealg.ktheory.int_det(b))
    checks, exact = corealg.cli._dilation_checks(
        det, len(b), int(flags["--box"]), int(flags.get("--level", 2)), 10 ** 9)
    if "--sigma" in flags:
        checks += 1 + len(corealg.cli.parse_points(flags["--sigma"]))
    assert exact and doc["checks"] == checks
    assert code == (1 if doc["failed"] else 0)


SNAPSHOTS = os.path.join(os.path.dirname(__file__), "snapshots")


@pytest.mark.parametrize("name, args", [
    ("uhf-demo-n3-N2", ("uhf", "demo", "--n", "3", "--N", "2")),
    ("module-verify-frames-n2-N2", ("module", "verify-frames", "--n", "2", "--N", "2")),
    ("module-verify-frames-o2", ("module", "verify-frames", "{g}")),
    ("module-verify-u-o2-depth3", ("module", "verify-u", "{g}", "--depth", "3")),
    ("exel-verify-transfer-o2", ("exel", "verify-transfer", "{g}")),
    ("core-verify-beta-o2-depth2", ("core", "verify-beta", "{g}", "--depth", "2",
                                    "--trials", "10", "--seed", "3")),
    ("module-crosscheck-o2-level2", ("module", "crosscheck", "{g}", "--level", "2")),
    # two vertices and irrational frame weights
    ("module-verify-frames-g3", ("module", "verify-frames", "{g3}")),
    ("module-verify-u-g3-depth3", ("module", "verify-u", "{g3}", "--depth", "3")),
    ("module-crosscheck-g3-level2", ("module", "crosscheck", "{g3}", "--level", "2")),
    # out-degrees 2 and 1: L averages with a different weight at each vertex
    ("exel-verify-transfer-g3", ("exel", "verify-transfer", "{g3}", "--depth", "3",
                                 "--trials", "20")),
    # conj_beta at degree 3 over two vertices
    ("module-crosscheck-g3-level3", ("module", "crosscheck", "{g3}", "--level", "3")),
    # pi_T relations with N = n and a depth-3 prefix sweep
    ("uhf-demo-n3-N3-depth3", ("uhf", "demo", "--n", "3", "--N", "3", "--depth", "3")),
    # the integer layers: Hermite boxes, lattice vectors and Smith forms
    ("dilation-verify-2-1-0-3-box3", ("dilation", "verify", "--matrix", "2,1;0,3", "--box", "3")),
    ("dilation-verify-3d-box1-level2", ("dilation", "verify", "--matrix", "2,1,0;0,2,1;1,0,2",
                                        "--box", "1", "--level", "2")),
    ("ktheory-paschke-3-2-2-3-af", ("ktheory", "paschke", "--matrix", "3,2;2,3", "--af")),
])
def test_json_matches_snapshot(capsys, tmp_path, o2_file, name, args):
    # the snapshots hold the --json bytes of these commands with the line
    # echoing the command (it names a temporary file) taken out
    g3 = tmp_path / "g3.graph"
    g3.write_text(G3_TEXT)
    code, out, _ = run(capsys, *(a.format(g=o2_file, g3=g3) for a in args), "--json")
    assert code == 0
    kept = re.sub(r'(?m)^  "command": .*\n', "", out)
    assert kept != out
    with open(os.path.join(SNAPSHOTS, name + ".json"), encoding="utf-8") as fh:
        assert kept == fh.read()


def _sections(out: str) -> dict:
    return {s["name"]: (s["checks"], len(s["failures"])) for s in json.loads(out)["sections"]}


@pytest.mark.parametrize("text, checks, failures", [(O2_TEXT, 16, 8), (G3_TEXT, 36, 12)])
def test_verify_frames_rejects_a_doubled_gram(capsys, tmp_path, monkeypatch, text, checks,
                                              failures):
    graph = tmp_path / "g.graph"
    graph.write_text(text)
    act1 = GraphFrameSystem.act1
    monkeypatch.setattr(GraphFrameSystem, "act1", lambda self, e, b, f: act1(self, e, b, f) * 2)
    code, out, _ = run(capsys, "module", "verify-frames", str(graph), "--json")
    assert code == 1
    assert _sections(out)["Gram positivity"] == (checks, failures)


@pytest.mark.parametrize("text", [O2_TEXT, G3_TEXT])
def test_verify_transfer_rejects_a_reweighted_transfer(capsys, tmp_path, monkeypatch, text):
    graph = tmp_path / "g.graph"
    graph.write_text(text)
    monkeypatch.setattr(corealg.exel_path, "transfer_L", weighted_transfer_L)
    monkeypatch.setattr(corealg.cli, "transfer_L", weighted_transfer_L)
    code, out, _ = run(capsys, "exel", "verify-transfer", str(graph), "--depth", "3", "--json")
    assert code == 1
    # only the relations through W see the weights
    failing = [name for name, (_, bad) in _sections(out).items() if bad]
    assert failing == ["Exel relations through W"]


def test_planted_failure_matches_snapshot(capsys, o2_file, monkeypatch):
    # beta doubled on the words whose mu starts with e1: multiplicativity,
    # adjoint and covariance each fail, and the text lists every witness
    original = CoreEndo.beta

    def planted(self, x):
        image = StarElement.zero(x.graph)
        for (mu, nu), c in x.items():
            term = original(self, StarElement.word(x.graph, c, mu, nu))
            image = image + (term * 2 if mu.edges[:1] == ("e1",) else term)
        return image

    monkeypatch.setattr(CoreEndo, "beta", planted)
    code, out, _ = run(capsys, "core", "verify-beta", o2_file, "--depth", "1",
                       "--trials", "3", "--seed", "7")
    assert code == 1
    kept = body(out).split("\n", 1)[1] + "\n"
    for kind in ("multiplicativity", "adjoint", "covariance"):
        assert "witness: %s fails" % kind in kept
    with open(os.path.join(SNAPSHOTS, "core-verify-beta-planted-o2.txt"),
              encoding="utf-8") as fh:
        assert kept == fh.read()
