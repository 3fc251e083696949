import copy
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import corealg
from corealg.graph import Graph, GraphFormatError, Path, bouquet, cycle, load_graph

G3_TEXT = "V a\nV b\nE x a a\nE y a b\nE z b a\n"    # out-degrees 2 and 1


def test_incidence_and_degrees(two_cycle):
    g = two_cycle
    assert g.src("x1") == "v1" and g.rng("x1") == "v2"
    assert g.out_edges("v1") == ("x1",)
    assert g.in_edges("v1") == ("x2",)
    assert g.all_regular                # every vertex receives an edge


def test_singular_vertex_detection(single_edge):
    assert not single_edge.in_edges("a")    # a is singular: it receives nothing
    assert single_edge.in_edges("b") == ("x",)
    assert single_edge.out_edges("a") == ("x",) and not single_edge.out_edges("b")
    assert not single_edge.all_regular
    assert not single_edge.path_space_admissible
    assert not single_edge.beta_admissible  # b emits nothing


def test_admissibility_flags(o2, two_cycle):
    for g in (o2, two_cycle):
        assert g.beta_admissible and g.path_space_admissible and g.all_regular


def test_path_composability(two_cycle):
    g = two_cycle
    p = g.path(["x2", "x1"])            # range v1, source v1
    assert p.src == "v1" and p.rng == "v1"
    with pytest.raises(ValueError):
        g.path(["x1", "x1"])            # s(x1)=v1 != r(x1)=v2


def test_append_prepend(two_cycle):
    g = two_cycle
    p = g.path(["x1"])                  # v1 -> v2, i.e. src v1, rng v2
    q = g.append_edge(p, "x2")          # extend at source: needs r(e)=s(p)=v1
    assert q.edges == ("x1", "x2") and q.src == "v2"
    r = g.prepend_edge("x2", p)         # extend at range: needs s(e)=r(p)=v2
    assert r.edges == ("x2", "x1") and r.rng == "v1"
    with pytest.raises(ValueError):
        g.append_edge(p, "x1")
    with pytest.raises(ValueError):
        g.prepend_edge("x1", p)


def test_prefix_and_drop_first(o2):
    g = o2
    p = g.path(["e1", "e2", "e1"])
    assert g.prefix(p, 2).edges == ("e1", "e2")
    assert not g.prefix(p, 0).edges
    assert g.drop_first(p).edges == ("e2", "e1")
    assert not g.drop_first(g.path(["e1"])).edges
    with pytest.raises(ValueError):
        g.prefix(p, 4)


def test_paths_enumeration_deterministic(o2):
    lvl2 = o2.paths(2)
    assert [p.text() for p in lvl2] == ["e1.e1", "e1.e2", "e2.e1", "e2.e2"]
    assert o2.paths(2) == lvl2          # stable across calls
    assert len(o2.paths(3)) == 8


def test_paths_builds_each_level_once(monkeypatch):
    # each level is built from the one below it, once, and then shared
    g = bouquet(2)
    built = []
    append = Graph.append_edge
    monkeypatch.setattr(Graph, "append_edge",
                        lambda self, p, e: built.append(len(p)) or append(self, p, e))
    lvl2 = g.paths(2)
    assert sorted(built) == [0, 0, 1, 1, 1, 1]
    built.clear()
    assert g.paths(2) is lvl2 and g.paths(1) is g.paths(1) and g.paths(0) is g.paths(0)
    assert built == []
    assert [p.text() for p in g.paths(3)] == [a + "." + b for a in ("e1.e1", "e1.e2", "e2.e1",
                                                                    "e2.e2") for b in ("e1", "e2")]
    assert sorted(built) == [2] * 8


def test_paths_counts_on_cycle(two_cycle):
    assert len(two_cycle.paths(0)) == 2
    assert len(two_cycle.paths(5)) == 2  # unique path of each length per start


def test_path_text_round_trip(o2):
    for n in range(0, 3):
        for p in o2.paths(n):
            assert o2.parse_path(p.text()) == p


def test_text_load_round_trip(two_cycle):
    g2 = load_graph(two_cycle.text())
    assert g2.vertices == two_cycle.vertices
    assert g2.edge_names == two_cycle.edge_names
    assert all(g2.src(e) == two_cycle.src(e) for e in g2.edge_names)


def test_load_graph_separators_and_comments():
    g = load_graph("V v  # the only vertex\nE e1 v v; E e2 v v\n")
    assert g.edge_names == ("e1", "e2")


def test_load_graph_errors():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph("V v\nE e1 v\n")
    with pytest.raises(GraphFormatError, match="duplicate vertex"):
        load_graph("V v; V v\n")
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        load_graph("V v\nE e v v\nE e v v\n")
    with pytest.raises(GraphFormatError, match="undeclared"):
        load_graph("V v\nE e v w\n")
    with pytest.raises(GraphFormatError, match="no vertex"):
        load_graph("# nothing declared\n")


def test_constructors():
    assert bouquet(3).edge_names == ("e1", "e2", "e3")
    assert len(cycle(4).vertices) == 4
    with pytest.raises(ValueError):
        bouquet(0)
    with pytest.raises(ValueError):
        cycle(0)


def test_unknown_names_raise(o2):
    with pytest.raises(KeyError):
        o2.empty_path("w")
    with pytest.raises(KeyError):
        o2.path(["zz"])


def test_paths_built_every_way_are_equal_and_hash_alike():
    g = load_graph("V a\nV b\nE x a a\nE y a b\nE z b a\n")
    z, y, x = g.path(["z"]), g.path(["y"]), g.path(["x"])
    built = [
        g.path(["z", "y", "x"]),
        g.append_edge(g.append_edge(z, "y"), "x"),
        g.prepend_edge("z", g.prepend_edge("y", x)),
        g.concat(z, g.path(["y", "x"])),
        g.concat(g.concat(z, y), x),
        g.parse_path("z.y.x"),
        g.drop_first(g.path(["x", "z", "y", "x"])),
        Path(("z", "y", "x"), "a", "a"),
    ]
    for p in built:
        assert p == built[0] and hash(p) == hash(built[0])
        assert hash(p) == hash(p)     # the cached value
    assert len(set(built)) == 1
    empties = [g.empty_path("a"), g.parse_path("@a"), g.prefix(x, 0),
               g.drop_first(x, 1), Path((), "a", "a")]
    assert len(set(empties)) == 1 and all(p == empties[0] for p in empties)
    assert g.empty_path("b") != empties[0]


def _assert_exact(g, p, edges, vertex):
    """p is an exact Path with these edges, equal to one built by Path(...);
    `vertex` is where the path sits when it has no edge."""
    src = g.src(edges[-1]) if edges else vertex
    rng = g.rng(edges[0]) if edges else vertex
    assert type(p) is Path
    assert p == Path(edges, src, rng) and hash(p) == hash(Path(edges, src, rng))
    assert len(p) == len(edges)
    assert p.text() == (".".join(edges) if edges else "@" + src)


@pytest.mark.parametrize("g", [cycle(2), bouquet(2), load_graph(G3_TEXT)],
                         ids=["two_cycle", "o2", "g3"])
def test_every_path_builder_returns_an_exact_path(g):
    words = [p for n in range(4) for p in g.paths(n)]
    for mu in words:
        _assert_exact(g, mu, mu.edges, mu.src)
        _assert_exact(g, g.parse_path(mu.text()), mu.edges, mu.src)
        for e in g.edge_names:
            if g.rng(e) == mu.src:
                _assert_exact(g, g.append_edge(mu, e), mu.edges + (e,), None)
            else:
                with pytest.raises(ValueError):
                    g.append_edge(mu, e)
            if g.src(e) == mu.rng:
                _assert_exact(g, g.prepend_edge(e, mu), (e,) + mu.edges, None)
            else:
                with pytest.raises(ValueError):
                    g.prepend_edge(e, mu)
        for nu in words:
            if mu.src == nu.rng:
                _assert_exact(g, g.concat(mu, nu), mu.edges + nu.edges, mu.src)
            else:
                with pytest.raises(ValueError):
                    g.concat(mu, nu)
        for k in range(len(mu) + 1):
            _assert_exact(g, g.prefix(mu, k), mu.edges[:k], mu.rng)
            if mu.edges:
                _assert_exact(g, g.drop_first(mu, k), mu.edges[k:], mu.src)
        with pytest.raises(ValueError):
            g.prefix(mu, len(mu) + 1)
        with pytest.raises(ValueError):
            g.drop_first(mu, len(mu) + 1)
    for v in g.vertices:
        with pytest.raises(ValueError):
            g.drop_first(g.empty_path(v))


# a --x--> b, a loop y at b, b --z--> c: a receives nothing and c emits nothing
SINK_TEXT = "V a\nV b\nV c\nE x a b\nE y b b\nE z b c\n"


@pytest.mark.parametrize("g", [bouquet(2), load_graph(G3_TEXT), load_graph(SINK_TEXT)],
                         ids=["o2", "g3", "sink"])
def test_extension_tables_hold_the_builders_paths(g):
    words = [p for n in range(4) for p in g.paths(n)]
    for p in words:
        at_range = g.range_extensions(p)
        at_source = g.source_extensions(p)
        assert at_range == tuple(g.prepend_edge(e, p) for e in g.out_edges(p.rng))
        assert at_source == tuple(g.append_edge(p, e) for e in g.in_edges(p.src))
        for q in at_range + at_source:
            _assert_exact(g, q, q.edges, None)
        assert g.range_extensions(p) is at_range
        assert g.source_extensions(p) is at_source
        assert (at_range == ()) == (not g.out_edges(p.rng))        # a sink at the range
        assert (at_source == ()) == (not g.in_edges(p.src))        # a singular source
    if "c" in g.vertices:
        assert g.range_extensions(g.path(["z", "y"])) == ()
        assert g.source_extensions(g.path(["y", "x"])) == ()


def test_path_count_counts_paths_up_to_length_n_and_stops_at_cap():
    assert bouquet(2).path_count("v", 5, 100) == 63
    assert bouquet(2).path_count("v", 99, 100) == 100
    # at b: y^t and y^(t-1).x for each length t >= 1; x stops at the
    # singular source a, and c receives only z
    g = load_graph(SINK_TEXT)
    assert [g.path_count("b", n, 100) for n in (0, 1, 3)] == [1, 3, 7]
    assert [g.path_count(v, 3, 100) for v in "ac"] == [1, 6]
    assert sum(g.path_count(v, 3, 100) for v in g.vertices) == len(
        [p for n in range(4) for p in g.paths(n)])
    # 100 copies of a --x--> b with a loop at b: the count visits only the
    # copy of its own vertex
    vertices = [x % i for i in range(100) for x in ("a%d", "b%d")]
    edges = [(x % i, s % i, r % i) for i in range(100)
             for x, s, r in (("x%d", "a%d", "b%d"), ("y%d", "b%d", "b%d"))]
    start = time.perf_counter()
    many = Graph(vertices, edges)
    assert many.path_count("b0", 49_999, 100_001) == 99_999
    assert many.path_count("b0", 10 ** 9, 100_001) == 100_001
    assert time.perf_counter() - start < 1.0


def test_paths_stay_immutable():
    p = bouquet(2).path(["e1", "e2"])
    hash(p)
    for field in ("edges", "src", "rng", "_hash"):
        with pytest.raises(AttributeError):
            setattr(p, field, ())
    assert p.edges == ("e1", "e2")
    # copies carry the fields, not the hash of this process
    for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        _, args, state = q.__reduce_ex__(2)[:3]
        assert args == (Path, ("e1", "e2"), "v", "v") and state is None
        for field in ("edges", "src", "rng", "_hash"):
            with pytest.raises(AttributeError):
                setattr(q, field, ())
        assert q == p and hash(q) == hash(p)


_KEYS = """
import pickle, sys
from corealg.graph import Graph, load_graph
from corealg.star_algebra import StarElement

def keys(g):
    paths = [p for n in range(3) for p in g.paths(n)]
    pairs = [(mu, nu) for mu in paths for nu in paths if mu.src == nu.src]
    return paths, {pair: i + 1 for i, pair in enumerate(pairs)}
"""
_DUMP = _KEYS + """
g = load_graph("V a; V b; E x a a; E y a b; E z b a")
paths, terms = keys(g)
for p in paths:
    g.range_extensions(p)
    g.source_extensions(p)
sys.stdout.buffer.write(pickle.dumps(
    (hash("x.z"), {p: p.text() for p in paths}, StarElement(g, terms))))
"""
_LOOKUP = _KEYS + """
h, by_path, x = pickle.loads(sys.stdin.buffer.read())
assert hash("x.z") != h, "both processes hash strings alike"
g = x.graph
paths, terms = keys(g)
assert len(by_path) == len(paths) and all(by_path[p] == p.text() for p in paths)
assert x.equal(StarElement(g, terms))
# the carried tables answer under this process's hashes, building nothing
builders = Graph.prepend_edge, Graph.append_edge
Graph.prepend_edge = Graph.append_edge = None
carried = [(g.range_extensions(p), g.source_extensions(p)) for p in paths]
Graph.prepend_edge, Graph.append_edge = builders
for p, (at_range, at_source) in zip(paths, carried):
    assert at_range == tuple(g.prepend_edge(e, p) for e in g.out_edges(p.rng))
    assert at_source == tuple(g.append_edge(p, e) for e in g.in_edges(p.src))
"""


def test_path_keys_rehash_in_another_process():
    """A dict keyed by Paths and a StarElement, pickled under one string-hash
    seed, answer lookups by freshly built keys under another."""
    src = os.path.dirname(os.path.dirname(corealg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code, seed, data=None):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], input=data,
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    run(_LOOKUP, "2", run(_DUMP, "1"))


# -- loader fuzzing -----------------------------------------------------------------

_names = st.one_of(st.sampled_from(["v", "w", "e1", "e2", "x_1", "V", "E", "bad-name", "\u00e9"]),
                   st.text(alphabet="vwe12_-.#;", max_size=4))
_statements = st.one_of(
    st.builds("V {}".format, _names),
    st.builds("E {} {} {}".format, _names, _names, _names),
    st.text(max_size=15))
_graph_texts = st.lists(st.lists(_statements, min_size=1, max_size=3).map("; ".join),
                        max_size=6).map("\n".join)


@settings(max_examples=150, deadline=3000)
@given(_graph_texts)
def test_load_graph_accepts_or_raises_value_error(text):
    try:
        g = load_graph(text)
    except ValueError:
        return
    assert load_graph(g.text()).text() == g.text()
