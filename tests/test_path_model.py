"""The word algebra against an independent model: its action on paths.

t_mu t_nu^* sends the basis vector of a path p = nu p' to that of mu p', and
t_mu t_@v^* sends p to mu p when r(p) = v.  The model below applies that rule
to edge tuples directly: it reads only the words' edge tuples and vertices
and the graph's incidence, never a Graph path builder, a product, an
expansion or an equality of star_algebra.  On paths longer than every word
involved the action is multiplicative, and on graphs where every vertex
receives an edge it is injective (a word of each gauge degree, expanded to a
common level, is a matrix unit there), so it decides products, equality,
expansion, adjoints and the shift.

Some elements share one coefficient object among their terms (beta images,
W, matrix units and sums built to do so), so that a product meets repeated
coefficient pairs and repeated partial sums."""

import random
from fractions import Fraction

import pytest

from corealg.core_endo import CoreEndo
from corealg.graph import bouquet, cycle, load_graph
from corealg.scalar import ONE, Radical
from corealg.star_algebra import StarElement, matrix_unit, unit

GRAPHS = {
    "O2": bouquet(2),
    "O3": bouquet(3),
    "G3": load_graph("V a\nV b\nE x a a\nE y a b\nE z b a\n"),
    "2-cycle": cycle(2),
}


# -- the model ---------------------------------------------------------------


def edge_paths(g, n):
    """Composable edge tuples of length n >= 1: s(p_i) = r(p_{i+1})."""
    level = [(e,) for e in g.edge_names]
    for _ in range(n - 1):
        level = [p + (e,) for p in level for e in g.edge_names if g.src(p[-1]) == g.rng(e)]
    return level


def add(vec, p, a):
    vec[p] = vec[p] + a if p in vec else a


def operator(x):
    """The action of x on vectors {edge tuple: coefficient} of paths longer
    than every nu of x.  The terms are looked up by nu: by its edge tuple,
    or by its vertex when nu is empty."""
    g = x.graph
    by_nu = {}
    for (mu, nu), c in x.items():
        by_nu.setdefault(nu.edges or nu.src, []).append((mu.edges, c))
    cuts = {len(nu) for nu in by_nu if isinstance(nu, tuple)}

    def act(vec):
        out = {}
        for p, a in vec.items():
            assert all(len(p) > cut for cut in cuts), "model used below its level"
            hits = [(mu, c, p) for mu, c in by_nu.get(g.rng(p[0]), ())]
            hits += [(mu, c, p[cut:]) for cut in cuts for mu, c in by_nu.get(p[:cut], ())]
            for mu, c, rest in hits:
                add(out, mu + rest, c if a is ONE else c * a)
        return {q: v for q, v in out.items() if v}
    return act


def matrix(x, level, *maps):
    """{p: image of p} over the paths p of one length, for x or, when maps
    are given, for the composite maps[0] o ... o maps[-1] o x."""
    act = operator(x)
    out = {}
    for p in edge_paths(x.graph, level):
        vec = act({p: ONE})
        for f in reversed(maps):
            vec = f(vec)
        if vec:
            out[p] = vec
    return out


def model_W(g):
    """W e_p = sum over e with s(e) = r(p) of |s^-1(s(e))|^(-1/2) e_(e p)."""
    def W(vec):
        out = {}
        for p, a in vec.items():
            for e in g.edge_names:
                if g.src(e) == g.rng(p[0]):
                    w = Radical.inv_sqrt(len(g.out_edges(g.src(e))))
                    add(out, (e,) + p, w * a)
        return out
    return W


def model_W_star(g):
    """W* e_(e p) = |s^-1(s(e))|^(-1/2) e_p."""
    def W_star(vec):
        out = {}
        for p, a in vec.items():
            w = Radical.inv_sqrt(len(g.out_edges(g.src(p[0]))))
            add(out, p[1:], w * a)
        return {p: v for p, v in out.items() if v}
    return W_star


def legs(*xs):
    """The longest mu or nu among the terms of xs."""
    return max((max(len(mu), len(nu)) for x in xs for mu, nu in x.terms), default=0)


def degrees(x):
    return {len(mu) - len(nu) for mu, nu in x.terms}


# -- seeded elements ---------------------------------------------------------

_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]


def random_coeff(rng):
    q = rng.choice(_VALUES)
    if rng.random() < 0.5:
        return Radical.from_rational(q)
    return Radical.from_rational(q) + Radical.sqrt(rng.choice([2, 3])) * rng.choice(_VALUES)


def random_word(rng, g, top=2, balanced=False):
    mu = rng.choice(g.paths(rng.randint(0, top)))
    n = len(mu) if balanced else rng.randint(0, top)
    nus = [nu for nu in g.paths(n) if nu.src == mu.src]
    return mu, rng.choice(nus)


def random_element(rng, g, balanced=False, top=2):
    """One to four terms with mu and nu of length at most top.  Each term
    holds one shared coefficient object or a value of its own; about a third
    of the elements share one object among all their terms."""
    share = rng.choice([0.0, 0.5, 1.0])
    c = random_coeff(rng)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[random_word(rng, g, top, balanced)] = c if rng.random() < share else \
            random_coeff(rng)
    return StarElement(g, terms)


def factors(rng, g, endo):
    """A random element (with paths of length up to 2 or 3), a beta image,
    W or W*, or a matrix unit."""
    kind = rng.randrange(5)
    if kind == 0:
        return endo.beta(random_element(rng, g, balanced=True, top=1))
    if kind == 1:
        W = endo.build_W()
        return W if rng.random() < 0.5 else W.adjoint()
    if kind == 2:
        return matrix_unit(g, *random_word(rng, g))
    return random_element(rng, g, top=kind - 1)


def seeded(name):
    g = GRAPHS[name]
    return random.Random("path model %s" % name), g, CoreEndo(g)


# -- comparisons -------------------------------------------------------------


@pytest.mark.parametrize("name", GRAPHS)
def test_products_act_as_composites(name):
    rng, g, endo = seeded(name)
    for _ in range(30):
        x, y = factors(rng, g, endo), factors(rng, g, endo)
        # y's image of a path is longer than every nu of x
        level = legs(x) + legs(y) + 1
        assert matrix(x * y, level) == matrix(y, level, operator(x))


@pytest.mark.parametrize("name", GRAPHS)
def test_beta_images_multiply_as_composites(name):
    """Products of two beta images: every term of each factor holds one of
    few coefficient objects, so pairs and sums repeat."""
    rng, g, endo = seeded(name)
    for _ in range(8):
        x = endo.beta(random_element(rng, g, balanced=True, top=1))
        y = endo.beta(random_element(rng, g, balanced=True, top=1))
        for a, b in ((x, y), (y, x), (x, x)):
            level = legs(a) + legs(b) + 1
            assert matrix(a * b, level) == matrix(b, level, operator(a))


@pytest.mark.parametrize("name", GRAPHS)
def test_rows_times_blocks_act_as_composites(name):
    """A row sum_nu c_nu t_mu t_nu^* times a block sum d_(nu,lam) t_nu t_lam^*
    over the paths of one length and source: each word t_mu t_lam^* of the
    product sums one product per nu.  Coefficients are shared along a row of
    the block or not, so one partial sum object meets different addends."""
    rng, g, _ = seeded(name)
    for _ in range(8):
        v = rng.choice(g.vertices)
        paths = [p for p in g.paths(rng.randint(1, 2)) if p.src == v]
        mu, c = rng.choice(paths), random_coeff(rng)
        row = {(mu, nu): c if rng.random() < 0.5 else random_coeff(rng) for nu in paths}
        block = {}
        for nu in paths:
            d = random_coeff(rng)
            shared = rng.random() < 0.5
            for lam in paths:
                block[(nu, lam)] = d if shared else random_coeff(rng)
        x, y = StarElement(g, row), StarElement(g, block)
        level = legs(x) + legs(y) + 1
        assert matrix(x * y, level) == matrix(y, level, operator(x))


@pytest.mark.parametrize("name", GRAPHS)
def test_equal_decides_as_the_model(name):
    rng, g, endo = seeded(name)
    verdicts = []
    for _ in range(24):
        x = random_element(rng, g)
        kind = rng.randrange(4)
        if kind == 0:
            y = random_element(rng, g)
        elif kind == 1:
            # x rewritten by the relation at a higher level
            y = x.expand_to_level(max(min(len(mu), len(nu)) for mu, nu in x.terms) + 1)
        elif kind == 2:
            # x with a relation added, and perhaps one coefficient moved
            z = random_element(rng, g)
            y = x + z - z.expand_to_level(legs(z))
            if rng.random() < 0.5:
                y = y + matrix_unit(g, *random_word(rng, g)) * Fraction(1, 3)
        else:
            y = x * unit(g) + matrix_unit(g, *random_word(rng, g)) * 0
        level = legs(x, y) + 1
        same = matrix(x, level) == matrix(y, level)
        assert x.equal(y) is same and y.equal(x) is same
        verdicts.append(same)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", GRAPHS)
def test_expand_to_level_keeps_the_action(name):
    rng, g, _ = seeded(name)
    for _ in range(12):
        x = random_element(rng, g)
        K = max(min(len(mu), len(nu)) for mu, nu in x.terms) + rng.randint(0, 1)
        y = x.expand_to_level(K)
        assert all(min(len(mu), len(nu)) == K for mu, nu in y.terms)
        level = legs(x, y) + 1
        assert matrix(y, level) == matrix(x, level)


@pytest.mark.parametrize("name", GRAPHS)
def test_adjoint_is_the_transpose(name):
    rng, g, endo = seeded(name)
    for _ in range(12):
        x = factors(rng, g, endo)
        # x* meets paths of every length level + d longer than its nu
        level = 2 * legs(x) + 1
        forward = {(q, p): c for p, image in matrix(x, level).items() for q, c in image.items()}
        backward = {}
        for d in degrees(x):
            for q, image in matrix(x.adjoint(), level + d).items():
                for p, c in image.items():
                    if len(p) == level:
                        backward[(q, p)] = c
        assert forward == backward


@pytest.mark.parametrize("name", GRAPHS)
def test_beta_is_conjugation_by_W(name):
    rng, g, endo = seeded(name)
    W, W_star = model_W(g), model_W_star(g)
    assert matrix(endo.build_W(), 4) == {p: W({p: ONE}) for p in edge_paths(g, 4)}
    for _ in range(10):
        x = random_element(rng, g, balanced=True)
        level = legs(x) + 2
        conjugate = {p: W(operator(x)(W_star({p: ONE}))) for p in edge_paths(g, level)}
        assert matrix(endo.beta(x), level) == {p: v for p, v in conjugate.items() if v}


@pytest.mark.parametrize("name", GRAPHS)
def test_i_expand_recombines(name):
    rng, g, endo = seeded(name)
    for _ in range(8):
        x = random_element(rng, g, balanced=True)
        if rng.random() < 0.5:
            x = endo.beta(x)
        i = legs(x) + rng.randint(0, 1)
        parts = x.i_expand(i)
        # every vertex here receives an edge: nothing stays below level i
        assert all(part.is_zero() for part in parts[:-1])
        assert all(len(mu) == len(nu) == i for mu, nu in parts[-1].terms)
        level = i + 1
        assert matrix(parts[-1], level) == matrix(x, level)
