"""The balanced-subalgebra endomorphism, its isometry, and the tensor model."""

from collections import Counter
from fractions import Fraction

import pytest

import corealg.scalar
from corealg.core_endo import CoreEndo
from corealg.exel_path import DepthFunction, alpha_shift
from corealg.graph import Graph, bouquet
from corealg.scalar import ONE, Radical
from corealg.star_algebra import StarElement, matrix_unit, unit, vertex_projection
from corealg.uhf_cuntz import TensorElement, rank_rescale, tensor_prepend
from corealg.util import CheckReport, SplitMix64, accumulate


def test_beta_of_vertex_projection(o2):
    g = o2
    endo = CoreEndo(g)
    img = endo.beta(vertex_projection(g, "v"))
    # On the 2-loop bouquet: (1/2) sum_{e,f} t_e t_f^*.
    expected = StarElement.zero(g)
    for e in ("e1", "e2"):
        for f in ("e1", "e2"):
            expected = expected + StarElement.word(
                g, Fraction(1, 2), g.path([e]), g.path([f]))
    assert img.equal(expected)


def test_beta_on_cycle_is_relabeling(two_cycle):
    g = two_cycle
    endo = CoreEndo(g)
    # Out-degrees are all 1, so beta just prepends the unique extension.
    x = matrix_unit(g, g.path(["x1"]), g.path(["x1"]))
    img = endo.beta(x)
    assert img.equal(matrix_unit(g, g.path(["x2", "x1"]), g.path(["x2", "x1"])))


def test_beta_of_unit_is_range_projection(o2, o3, two_cycle):
    for g in (o2, o3, two_cycle):
        endo = CoreEndo(g)
        W = endo.build_W()
        img = endo.beta(unit(g))
        assert img.equal(W * W.adjoint())
        assert (img * img).equal(img)
        assert img.adjoint().equal(img)


def test_beta_rejects_non_core(o2):
    endo = CoreEndo(o2)
    with pytest.raises(ValueError):
        endo.beta(StarElement.word(o2, 1, o2.path(["e1"]), o2.empty_path("v")))


def test_beta_needs_out_edges(single_edge):
    with pytest.raises(ValueError, match="emits no edge"):
        CoreEndo(single_edge)


def test_w_isometry(o2, o3, two_cycle):
    for g in (o2, o3, two_cycle):
        W = CoreEndo(g).build_W()
        assert (W.adjoint() * W).equal(unit(g))


def test_w_coefficients(o3):
    W = CoreEndo(o3).build_W()
    terms = dict(W.items())
    assert len(terms) == 3
    for (mu, nu), c in terms.items():
        assert len(mu) == 1 and not nu.edges
        assert c == Radical.inv_sqrt(3)


def test_covariance_small_sweep(o2, two_cycle):
    for g in (o2, two_cycle):
        endo = CoreEndo(g)
        W = endo.build_W()
        cases = [unit(g)]
        for mu in g.paths(1):
            for nu in g.paths(1):
                if mu.src == nu.src:
                    cases.append(matrix_unit(g, mu, nu))
        for x in cases:
            assert endo.beta(x).equal(W * x * W.adjoint()), x.text()


def test_homomorphism_on_random_elements(o2):
    g = o2
    endo = CoreEndo(g)
    rng = SplitMix64(11)
    lvl1 = [(mu, nu) for mu in g.paths(1) for nu in g.paths(1)]
    for _ in range(40):
        x = StarElement.zero(g)
        y = StarElement.zero(g)
        for _ in range(2):
            mu, nu = rng.choice(lvl1)
            x = x + StarElement.word(g, rng.fraction(), mu, nu)
            mu, nu = rng.choice(lvl1)
            y = y + StarElement.word(g, rng.fraction(), mu, nu)
        assert endo.beta(x * y).equal(endo.beta(x) * endo.beta(y))
        assert endo.beta(x.adjoint()).equal(endo.beta(x).adjoint())
        assert endo.beta(x + y).equal(endo.beta(x) + endo.beta(y))


def test_beta_takes_each_weight_once_and_sums_nothing(monkeypatch):
    # each image coefficient is one unit coefficient times one shift weight,
    # so beta forms 1/sqrt(n_mu n_nu) once per out-degree pair of its endomorphism
    # and never sums two scalars
    graphs = [bouquet(2), Graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "a")])]
    inv_sqrt = Radical.inv_sqrt
    roots: list[int] = []

    def counted_inv_sqrt(cls, n):
        roots.append(n)
        return inv_sqrt(n)

    def no_accumulate(*args):
        raise AssertionError("beta summed two scalars")

    for g in graphs:
        endo = CoreEndo(g)
        out_degree = {v: len(g.out_edges(v)) for v in g.vertices}
        units = [matrix_unit(g, mu, nu) for n in range(4) for mu in g.paths(n)
                 for nu in g.paths(n) if mu.src == nu.src]
        pairs = {(out_degree[mu.rng], out_degree[nu.rng])
                 for x in units for (mu, nu), _ in x.items()}
        roots.clear()
        with monkeypatch.context() as m:
            m.setattr(Radical, "inv_sqrt", classmethod(counted_inv_sqrt))
            m.setattr(corealg.scalar, "accumulate", no_accumulate)
            images = [endo.beta(x) for x in units]
        assert sorted(roots) == sorted(a * b for a, b in pairs)
        W = endo.build_W()
        for x, img in zip(units, images):
            assert img.equal(W * x * W.adjoint()), x.text()


def test_shifts_build_each_extension_once(monkeypatch):
    # beta, alpha and lift read each path's one-edge extensions from the
    # graph's tables: every extension is built once, on the first read of its
    # path, and a second pass builds none
    plain = {name: getattr(Graph, name) for name in
             ("prepend_edge", "append_edge", "range_extensions", "source_extensions")}
    built: Counter = Counter()
    read: dict[str, set] = {"range": set(), "source": set()}

    def prepend(self, e, p):
        built["range", e, p] += 1
        return plain["prepend_edge"](self, e, p)

    def append(self, p, e):
        built["source", e, p] += 1
        return plain["append_edge"](self, p, e)

    def range_extensions(self, p):
        read["range"].add(p)
        return plain["range_extensions"](self, p)

    def source_extensions(self, p):
        read["source"].add(p)
        return plain["source_extensions"](self, p)

    graphs = [bouquet(2), Graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "a")])]
    for g in graphs:
        endo = CoreEndo(g)
        W = endo.build_W()
        units = [matrix_unit(g, mu, nu) for n in range(4) for mu in g.paths(n)
                 for nu in g.paths(n) if mu.src == nu.src]
        indicators = [DepthFunction.indicator(g, q) for n in range(3) for q in g.paths(n)]
        read["range"].clear()
        read["source"].clear()
        passes = []
        with monkeypatch.context() as m:
            for name, wrapper in (("prepend_edge", prepend), ("append_edge", append),
                                  ("range_extensions", range_extensions),
                                  ("source_extensions", source_extensions)):
                m.setattr(Graph, name, wrapper)
            for _ in range(2):
                built.clear()
                images = [endo.beta(x) for x in units]
                alphas = [alpha_shift(f) for f in indicators]
                lifts = [f.lift(f.depth + 2) for f in indicators]
                passes.append(dict(built))
        assert passes[0] == {(side, e, p): 1 for side, paths in read.items() for p in paths
                             for e in (g.out_edges(p.rng) if side == "range"
                                       else g.in_edges(p.src))}
        assert read["range"] and read["source"] and passes[1] == {}
        for x, img in zip(units, images):
            assert img.equal(W * x * W.adjoint()), x.text()
        for f, a, lf in zip(indicators, alphas, lifts):
            assert all(a.value(p) == f.value(g.drop_first(p)) for p in g.paths(f.depth + 1))
            assert all(lf.value(p) == f.value(g.prefix(p, f.depth)) for p in g.paths(f.depth + 2))


def test_matrix_unit_images(o2):
    endo = CoreEndo(o2)
    for level in (1, 2):
        family, report = endo.matrix_unit_images(level, "v")
        assert len(family) == 4 ** level
        assert report.passed, report.lines()
        assert report.checks > len(family)


def test_matrix_unit_images_lists_the_paths_once(o2, monkeypatch):
    calls = []
    paths = Graph.paths
    monkeypatch.setattr(Graph, "paths", lambda self, n: calls.append(n) or paths(self, n))
    endo = CoreEndo(o2)
    for level in (1, 2):
        family, report = endo.matrix_unit_images(level, "v")
        assert len(family) == 4 ** level and report.passed
    assert calls == [1, 2]


def test_matrix_unit_images_work_is_pinned(o3, radical_ops):
    # every term of a beta image holds one coefficient object: 9 images take
    # one product each, and each of the 27 nonzero products of two images
    # one more (738 products and 486 sums before products reused them)
    family, report = CoreEndo(o3).matrix_unit_images(1, "v")
    assert report.passed and report.checks == 90
    assert radical_ops == {"mul": 36, "add": 162}


def test_matrix_unit_images_report_a_scaled_image_term(o3, monkeypatch):
    # a beta that doubles the first image term of every word: the images
    # are still adjoint in pairs, but every product of two images comes out
    # wrong, and the report names the pair and the product
    beta = CoreEndo.beta

    def planted(self, x):
        image = dict(beta(self, x).items())
        first = min(image, key=lambda w: (w[0].text(), w[1].text()))
        image[first] = image[first] * 2
        return StarElement(self.graph, image)

    monkeypatch.setattr(CoreEndo, "beta", planted)
    family, report = CoreEndo(o3).matrix_unit_images(1, "v")
    # all 27 nonzero products fail, and no adjoint pair does
    assert report.lines()[0] == \
        "matrix unit images (level 1, vertex v): FAIL (90 checks, 27 failures)"
    assert report.failures[0].startswith("product rule fails at (e1,e1)(e1,e1):\n")


def test_matrix_unit_images_on_cycle(two_cycle):
    endo = CoreEndo(two_cycle)
    family, report = endo.matrix_unit_images(2, "v1")
    assert report.passed
    assert len(family) == 1  # one path of each length from each start


# -- the tensor model of beta on the n-loop bouquet ---------------------------------


def averaging_unitary(n: int) -> list[list[Radical]]:
    """Columns: the normalized all-ones vector, completed orthonormally."""
    avg = TensorElement(n, 1, {((i,), (j,)): Radical.from_rational(Fraction(1, n))
                               for i in range(1, n + 1) for j in range(1, n + 1)})
    _, u, report = rank_rescale(n, 1, avg)
    if not report.passed:
        raise RuntimeError("exact diagonalization failed:\n" + "\n".join(report.lines()))
    return u


def first_slot_conjugate(u: list[list[Radical]], a: TensorElement) -> TensorElement:
    """(u (x) 1) a (u^adj (x) 1) acting on the leading tensor slot."""
    if a.k < 1:
        raise ValueError("need depth at least 1")
    n = a.n
    out: dict = {}
    for (mu, nu), c in a.terms.items():
        for r in range(1, n + 1):
            left = u[r - 1][mu[0] - 1]
            if not left:
                continue
            for s in range(1, n + 1):
                right = u[s - 1][nu[0] - 1]
                if not right:
                    continue
                accumulate(out, ((r,) + mu[1:], (s,) + nu[1:]), left * c * right)
    return TensorElement(n, a.k, out)


def to_core_element(g: Graph, loops: dict[int, str], a: TensorElement) -> StarElement:
    """The dictionary e_{mu nu} (x) 1 -> t_mu t_nu^* into the bouquet algebra."""
    if a.k == 0:
        c = a.terms.get(((), ()), Radical())
        return unit(g) * c if c else StarElement.zero(g)
    out: dict = {}
    for (mu, nu), c in a.terms.items():
        pm = g.path([loops[i] for i in mu])
        pn = g.path([loops[i] for i in nu])
        accumulate(out, (pm, pn), c)
    return StarElement(g, out)


def tensor_beta_compare(n: int, x) -> CheckReport:
    """Check the bouquet-of-n-loops form of beta on a tensor element.

    The dictionary e_{mu nu} (x) 1 -> s_mu s_nu^* carries x into the balanced
    subalgebra; there beta(x) must match p (x) x with p the rank-one averaging
    projection (1/n) sum_{ij} e_ij.  A unitary u with first column the
    normalized all-ones vector conjugates e_11 to p, so the same check runs
    once more through Ad(u (x) 1) of e_11 (x) x.
    """
    report = CheckReport("tensor form of beta on the %d-loop bouquet" % n)
    if x.n != n:
        raise ValueError("tensor element is over M_%d, expected M_%d" % (x.n, n))
    g = bouquet(n)
    loops = {i: "e%d" % i for i in range(1, n + 1)}
    endo = CoreEndo(g)

    p_entries = {((i,), (j,)): Radical.from_rational(Fraction(1, n))
                 for i in range(1, n + 1) for j in range(1, n + 1)}
    p = TensorElement(n, 1, p_entries)

    report.check((p * p).equal(p), lambda: "averaging projection is not idempotent")
    report.check(p.trace() == 1,
                 lambda: "averaging projection has trace %s, expected 1" % (p.trace(),))

    lhs = endo.beta(to_core_element(g, loops, x))
    rhs = to_core_element(g, loops, tensor_prepend(p, x))
    report.check(lhs.equal(rhs), lambda: "beta(x) != p (x) x for x=\n%s" % x.text())

    u = averaging_unitary(n)
    e11 = TensorElement(n, 1, {((1,), (1,)): ONE})
    report.check(first_slot_conjugate(u, e11).equal(p), lambda: "u e_11 u* != p")
    conj = first_slot_conjugate(u, tensor_prepend(e11, x))
    report.check(conj.equal(tensor_prepend(p, x)),
                 lambda: "Ad(u (x) 1)(e_11 (x) x) != p (x) x for x=\n%s" % x.text())
    return report


def test_tensor_beta_compare():
    x = TensorElement(2, 1, {((1,), (2,)): ONE})
    report = tensor_beta_compare(2, x)
    assert report.passed, report.lines()
    y = TensorElement(3, 1, {((1,), (1,)): ONE, ((2,), (3,)): ONE * Fraction(1, 2)})
    report = tensor_beta_compare(3, y)
    assert report.passed, report.lines()
    with pytest.raises(ValueError):
        tensor_beta_compare(2, y)


def test_averaging_unitary_pinned():
    u = averaging_unitary(2)
    h = Radical.inv_sqrt(2)
    assert u[0][0] == h and u[0][1] == h
    assert u[1][0] == h and u[1][1] == -h
