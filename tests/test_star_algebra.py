"""Word collapse, equality, expansion, and the numeric norm bound."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corealg.core_endo import CoreEndo
from corealg.graph import Graph, bouquet, load_graph
from corealg.scalar import ONE, RADICAND_LIMIT, Radical
from corealg.star_algebra import (
    ElementFormatError,
    MixedDegreeError,
    SingularVertexError,
    StarElement,
    UndecidableEqualityError,
    edge_isometry,
    matrix_unit,
    op_norm,
    parse_element,
    path_isometry,
    unit,
    vertex_projection,
)


@pytest.fixture
def singular_loop():
    """a --x--> b with a loop y at b; vertex a receives nothing."""
    return Graph(["a", "b"], [("x", "a", "b"), ("y", "b", "b")])


# -- collapse -------------------------------------------------------------------


def test_isometry_relation(o2):
    te = edge_isometry(o2, "e1")
    assert (te.adjoint() * te).equal(vertex_projection(o2, "v"))


def test_distinct_edges_annihilate(o2):
    t1, t2 = edge_isometry(o2, "e1"), edge_isometry(o2, "e2")
    assert (t1.adjoint() * t2).is_zero()


def test_projection_absorbs(two_cycle):
    t = edge_isometry(two_cycle, "x1")           # x1: v1 -> v2
    assert (t * vertex_projection(two_cycle, "v1")).equal(t)
    assert (vertex_projection(two_cycle, "v2") * t).equal(t)
    assert (t * vertex_projection(two_cycle, "v2")).is_zero()


def test_partial_collapse_leaves_remainder(o2):
    g = o2
    x = matrix_unit(g, g.path(["e1"]), g.path(["e2"]))
    y = matrix_unit(g, g.path(["e2"]), g.path(["e1"]))
    assert (x * y).equal(matrix_unit(g, g.path(["e1"]), g.path(["e1"])))
    long = matrix_unit(g, g.path(["e2", "e1"]), g.path(["e2", "e1"]))
    picked = x * long
    assert picked.equal(StarElement.word(
        g, 1, g.path(["e1", "e1"]), g.path(["e2", "e1"])))


def test_cuntz_relation(o2):
    total = StarElement.zero(o2)
    for e in o2.edge_names:
        t = edge_isometry(o2, e)
        total = total + t * t.adjoint()
    assert total.equal(unit(o2))


def test_adjoint_antimultiplicative(o2):
    g = o2
    x = matrix_unit(g, g.path(["e1"]), g.path(["e2"]))
    y = matrix_unit(g, g.path(["e2", "e2"]), g.path(["e1"]))
    assert ((x * y).adjoint()).equal(y.adjoint() * x.adjoint())


def test_scalar_and_degree_bookkeeping(o2):
    g = o2
    t = edge_isometry(g, "e1")
    p = vertex_projection(g, "v")
    x = t * Fraction(1, 2) + p
    parts = x.degree_decompose()
    assert sorted(parts) == [0, 1]
    assert parts[1].equal(t * Fraction(1, 2))
    assert x.max_level() == 1
    endo = CoreEndo(g)
    with pytest.raises(ValueError, match="balanced"):
        endo.beta(x)
    w = endo.build_W()
    assert endo.beta(p).equal(w * p * w.adjoint())


def test_path_isometry_is_product_of_edges(o2):
    g = o2
    p = g.path(["e1", "e2"])
    assert path_isometry(g, p).equal(edge_isometry(g, "e1") * edge_isometry(g, "e2"))


# -- expansion and i-expansion ---------------------------------------------------


def test_expand_to_level(o2):
    p = vertex_projection(o2, "v")
    lvl1 = p.expand_to_level(1)
    expected = {(("e1",), ("e1",)), (("e2",), ("e2",))}
    assert {(mu.edges, nu.edges) for (mu, nu), _ in lvl1.items()} == expected
    assert lvl1.equal(p)
    with pytest.raises(ValueError):
        lvl1.expand_to_level(0)


def test_expand_blocked_at_singular_vertex(single_edge):
    with pytest.raises(SingularVertexError):
        vertex_projection(single_edge, "a").expand_to_level(1)


def test_i_expand_single_edge(single_edge):
    g = single_edge
    x = vertex_projection(g, "a") + vertex_projection(g, "b")
    c0, c1 = x.i_expand(1)
    assert c0.equal(vertex_projection(g, "a"))
    t = edge_isometry(g, "x")
    assert c1.equal(t * t.adjoint())
    assert (c0 + c1).equal(x)


def test_i_expand_idempotent_and_regular(o2):
    p = vertex_projection(o2, "v")
    for i in range(1, 4):
        comps = p.i_expand(i)
        assert len(comps) == i + 1
        assert all(comps[j].is_zero() for j in range(i))  # no singular vertices
        assert comps[i].equal(p)
        again = comps[i].i_expand(i)
        assert again[i].equal(comps[i])


def test_i_expand_rejects_non_core(o2):
    with pytest.raises(ValueError):
        edge_isometry(o2, "e1").i_expand(1)
    with pytest.raises(ValueError):
        vertex_projection(o2, "v").expand_to_level(2).i_expand(1)


# -- equality ---------------------------------------------------------------------


def test_equal_through_relations(o2):
    t1, t2 = edge_isometry(o2, "e1"), edge_isometry(o2, "e2")
    assert unit(o2).equal(t1 * t1.adjoint() + t2 * t2.adjoint())
    assert not unit(o2).equal(t1 * t1.adjoint())


def test_equal_singular_fallback(single_edge):
    g = single_edge
    t = edge_isometry(g, "x")
    # p_b expands through the regular vertex b even though a is singular.
    assert vertex_projection(g, "b").equal(t * t.adjoint())
    both = vertex_projection(g, "a") + vertex_projection(g, "b")
    assert not both.equal(t * t.adjoint())


def test_equal_undecidable_off_core(singular_loop):
    g = singular_loop
    x = StarElement.word(g, 1, g.path(["x"]), g.empty_path("a"))
    y = StarElement.word(g, 1, g.path(["y", "x"]), g.path(["x"]))
    with pytest.raises(UndecidableEqualityError):
        x.equal(y)


def test_equal_skips_identical_terms(o2, monkeypatch):
    t1, t2 = edge_isometry(o2, "e1"), edge_isometry(o2, "e2")
    x = t1 * Radical.sqrt(2) + t2 * t1.adjoint() * Fraction(1, 3) + vertex_projection(o2, "v")
    copy = parse_element(o2, x.text())
    calls = [0]
    for name in ("__add__", "__neg__"):
        plain = getattr(Radical, name)

        def counting(*args, plain=plain):
            calls[0] += 1
            return plain(*args)

        monkeypatch.setattr(Radical, name, counting)
    assert x.equal(copy) and copy.equal(x)
    assert calls[0] == 0
    # the graph check still comes first, even for two equal (empty) dicts
    with pytest.raises(ValueError):
        StarElement.zero(bouquet(2)).equal(StarElement.zero(bouquet(2)))
    # different dicts are still decided through expansion
    expansions = [0]
    plain_expand = StarElement.expand_to_level

    def counting_expand(self, K):
        expansions[0] += 1
        return plain_expand(self, K)

    monkeypatch.setattr(StarElement, "expand_to_level", counting_expand)
    assert vertex_projection(o2, "v").equal(t1 * t1.adjoint() + t2 * t2.adjoint())
    assert expansions[0] > 0


# -- numeric norm -------------------------------------------------------------------


def test_norm_of_isometries(o2):
    assert op_norm(edge_isometry(o2, "e1")).value == pytest.approx(1.0, abs=1e-12)
    assert op_norm(unit(o2)).value == pytest.approx(1.0, abs=1e-12)
    row = edge_isometry(o2, "e1") + edge_isometry(o2, "e2")
    assert op_norm(row).value == pytest.approx(2 ** 0.5, abs=1e-9)
    w = row * Radical.inv_sqrt(2)
    res = op_norm(w)
    assert abs(res.value - 1.0) <= 1e-9
    assert res.error_bound < 1e-6


def test_norm_rejects_mixed_degree(o2):
    with pytest.raises(MixedDegreeError):
        op_norm(unit(o2) + edge_isometry(o2, "e1"))


def test_norm_rejects_singular(single_edge):
    with pytest.raises(SingularVertexError):
        op_norm(vertex_projection(single_edge, "a"))


# -- text format --------------------------------------------------------------------


def test_text_round_trip(o2):
    g = o2
    x = (matrix_unit(g, g.path(["e1"]), g.path(["e2"])) * Radical.sqrt(2)
         + vertex_projection(g, "v") * Fraction(-1, 3))
    assert parse_element(g, x.text()).equal(x)
    assert parse_element(g, "").is_zero()


def test_parse_errors(o2):
    with pytest.raises(ElementFormatError, match="line 1"):
        parse_element(o2, "TERM 1 e1\n")
    with pytest.raises(ElementFormatError, match="line 2"):
        parse_element(o2, "TERM 1 e1 e1\nTERM nonsense e1 e1\n")


def test_parse_rejects_source_mismatch(two_cycle):
    with pytest.raises(ElementFormatError, match="differ"):
        parse_element(two_cycle, "TERM 1 x1 x2\n")


# -- algebra laws on random elements ---------------------------------------------


def _o2_words():
    g = bouquet(2)
    pairs = []
    for m in range(0, 3):
        for n in range(0, 3):
            for mu in g.paths(m):
                for nu in g.paths(n):
                    if mu.src == nu.src:
                        pairs.append((mu, nu))
    return g, pairs


_G, _PAIRS = _o2_words()
_coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def o2_elements(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    x = StarElement.zero(_G)
    for _ in range(n):
        mu, nu = draw(st.sampled_from(_PAIRS))
        c = draw(_coeffs)
        if c:
            x = x + StarElement.word(_G, c, mu, nu)
    return x


@settings(max_examples=60, deadline=None)
@given(o2_elements(), o2_elements(), o2_elements())
def test_product_laws(x, y, z):
    assert ((x * y) * z).equal(x * (y * z))
    assert (x * (y + z)).equal(x * y + x * z)
    assert ((x * y).adjoint()).equal(y.adjoint() * x.adjoint())
    assert (x.adjoint().adjoint()).equal(x)


# -- indexed product against the all-pairs rule -----------------------------------


def _remainder(g, nu, kappa):
    """kappa' with kappa = nu kappa', or None when nu is no prefix of kappa."""
    j = len(nu)
    if j > len(kappa) or nu.edges != kappa.edges[:j]:
        return None
    if j == 0 and nu.src != kappa.rng:
        return None
    rest = kappa.edges[j:]
    return g.path(rest) if rest else g.empty_path(kappa.src)


def _compatible(g, nu, kappa) -> bool:
    return _remainder(g, nu, kappa) is not None or _remainder(g, kappa, nu) is not None


def naive_product(x, y):
    """The prefix rule applied to every pair of terms."""
    g = x.graph
    terms = {}
    for (mu, nu), a in x.items():
        for (kappa, lam), b in y.items():
            rest = _remainder(g, nu, kappa)
            if rest is not None:
                word = (g.concat(mu, rest), lam)
            else:
                rest = _remainder(g, kappa, nu)
                if rest is None:
                    continue
                word = (mu, g.concat(lam, rest))
            terms[word] = terms.get(word, Radical()) + a * b
    return StarElement(g, terms)


def _all_words(g, max_len):
    paths = [p for n in range(max_len + 1) for p in g.paths(n)]
    return [(mu, nu) for mu in paths for nu in paths if mu.src == nu.src]


_PRODUCT_GRAPHS = [
    bouquet(2),
    bouquet(3),
    load_graph("V a\nV b\nE x a a\nE y a b\nE z b a\n"),
    # vertex a and edge a share a name
    load_graph("V a\nE a a a\nE b a a\n"),
]
# short words half the time, so empty nu and kappa meet often
_PRODUCT_WORDS = [st.one_of(st.sampled_from(_all_words(g, 1)), st.sampled_from(_all_words(g, 3)))
                  for g in _PRODUCT_GRAPHS]
_radical_coeffs = st.builds(lambda q, r: ONE * q + Radical.sqrt(2) * r, _coeffs, _coeffs)


def _elements(i):
    g = _PRODUCT_GRAPHS[i]
    terms = st.dictionaries(_PRODUCT_WORDS[i], _radical_coeffs, max_size=6)
    return terms.map(lambda t: StarElement(g, t))


@pytest.mark.parametrize("i", range(len(_PRODUCT_GRAPHS)), ids=["O2", "O3", "G3", "shared_name"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_all_pairs_rule(i, data):
    x, y = data.draw(_elements(i)), data.draw(_elements(i))
    assert dict((x * y).items()) == dict(naive_product(x, y).items())


def test_vertex_and_edge_names_do_not_meet():
    g = _PRODUCT_GRAPHS[3]
    p = vertex_projection(g, "a")
    t = edge_isometry(g, "a")
    assert dict((p * t).items()) == dict(t.items())
    assert dict((t.adjoint() * p).items()) == dict(t.adjoint().items())
    assert dict((p * p).items()) == dict(p.items())


_TEXT_GRAPHS = [
    bouquet(2),
    load_graph("V a\nV b\nE x a a\nE y a b\nE z b a\n"),
    # b is a sink: it emits nothing
    load_graph("V a\nV b\nE x a b\nE y a a\n"),
    # every edge is named after a vertex
    load_graph("V a\nV b\nE a a b\nE b b a\n"),
]


def _text_elements(g):
    """Elements whose mu and nu have independent lengths 0..3, so empty and
    mixed-length words both occur."""
    paths = [p for n in range(4) for p in g.paths(n)]
    same_src = {v: [p for p in paths if p.src == v] for v in g.vertices}
    words = st.sampled_from(paths).flatmap(
        lambda mu: st.tuples(st.just(mu), st.sampled_from(same_src[mu.src])))
    return st.dictionaries(words, _radical_coeffs, max_size=5).map(lambda t: StarElement(g, t))


@pytest.mark.parametrize("g", _TEXT_GRAPHS, ids=["O2", "G3", "sink", "edge_vertex_names"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_text_matches_naive_prefix_rule(g, data):
    x, y = data.draw(_text_elements(g)), data.draw(_text_elements(g))
    assert (x * y).text() == naive_product(x, y).text()


def _shares_first_edge(nu, kappa) -> bool:
    return bool(nu.edges and kappa.edges and nu.edges[0] == kappa.edges[0])


def test_product_visits_only_indexed_pairs(o3, monkeypatch):
    """Operation-count guard: inside a word product, Radical.__mul__ runs at
    most once per prefix-compatible term pair, never once per pair of terms
    as an all-pairs scan would (a pair of coefficient objects met again in a
    row reuses its product), and Graph.drop_first once per such pair whose
    nu and kappa are nonempty and of different lengths (equal ones match
    whole)."""
    counts = dict.fromkeys(("mul", "drop", "compatible", "cut", "shared", "pairs"), 0)
    inside = [False]
    plain_mul = Radical.__mul__
    plain_drop = Graph.drop_first
    plain_product = StarElement._product

    def counting_mul(self, other):
        counts["mul"] += inside[0]
        return plain_mul(self, other)

    def counting_drop(self, p, k=1):
        counts["drop"] += inside[0]
        return plain_drop(self, p, k)

    def counting_product(self, other):
        for (_, nu) in dict(self.items()):
            for (kappa, _) in dict(other.items()):
                compatible = _compatible(o3, nu, kappa)
                counts["pairs"] += 1
                counts["compatible"] += compatible
                counts["cut"] += (compatible and bool(nu.edges and kappa.edges)
                                  and len(nu) != len(kappa))
                counts["shared"] += _shares_first_edge(nu, kappa)
        inside[0] = True
        try:
            return plain_product(self, other)
        finally:
            inside[0] = False

    monkeypatch.setattr(Radical, "__mul__", counting_mul)
    monkeypatch.setattr(Graph, "drop_first", counting_drop)
    monkeypatch.setattr(StarElement, "_product", counting_product)
    endo = CoreEndo(o3)
    family, report = endo.matrix_unit_images(1, "v")
    assert len(family) == 9 and report.passed and report.checks == 90
    assert counts["drop"] == counts["cut"] == 0     # every word there is at level 2
    # level-1 images (level-2 words) against level-2 images (level-3 words)
    words = o3.paths(2)[:3]
    level2 = [endo.beta(matrix_unit(o3, mu, nu)) for mu in words for nu in words]
    for x in family.values():
        for y in level2:
            x * y
            y * x
    # every term of a beta image holds one coefficient object, so each
    # product that meets a compatible pair multiplies once: 27 + 54 of them
    assert counts["mul"] <= counts["compatible"]
    assert counts["mul"] == 81 and counts["compatible"] == 2187
    assert counts["drop"] == counts["cut"] > 0
    assert 2 * counts["shared"] < counts["pairs"]


# -- parser fuzzing -----------------------------------------------------------------

_path_tokens = st.one_of(
    st.sampled_from(["@v", "@w", "e1", "e2", "e1.e2", "e2.e1.e1", "e3", "e1..e2", "@", ""]),
    st.text(alphabet="e12.@v", max_size=6))
_radical_tokens = st.one_of(
    st.builds(lambda c, k: "%s*sqrt(%d)" % (c, k), _coeffs,
              st.one_of(st.integers(min_value=-1, max_value=50),
                        st.integers(min_value=RADICAND_LIMIT - 50, max_value=RADICAND_LIMIT + 2))),
    st.builds(str, _coeffs),
    st.text(alphabet="0123456789+-*/sqrt()", max_size=10))
_lines = st.one_of(
    st.builds(lambda c, m, n: "TERM %s %s %s" % (c, m, n), _radical_tokens, _path_tokens, _path_tokens),
    st.text(max_size=20))


@settings(max_examples=150, deadline=3000)
@given(st.lists(_lines, max_size=4).map("\n".join))
def test_parse_element_accepts_or_raises_format_error(text):
    g = _G
    try:
        x = parse_element(g, text)
    except ElementFormatError:
        return
    assert dict(parse_element(g, x.text()).items()) == dict(x.items())
