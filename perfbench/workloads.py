"""The three workloads: case pools, golden-digest texts and negative controls.

Every input is made here from Python's own `random.Random`, seeded by the
workload seed, so a change to corealg cannot alter what it is fed.  A case is
one request: `run()` calls corealg's public API and returns True when the
program's own checks pass.

Cases are called through module attributes and methods only (never through
function objects captured at build time), so the tracer's wrappers see them.

Pool order is fixed and independent of the seed: each case kind is spread
evenly over the pool, so every prefix of the pool holds the same mix.  A
second seed changes the inputs of the random kinds and nothing else.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

WORKLOADS = ("shift-sweep", "module-crosscheck", "rational-lattice")

# Graph texts; the files under graphs/ hold the same graphs for the CLI.
G3_TEXT = "V a\nV b\nE x a a\nE y a b\nE z b a\n"


class Case:
    """One request: a kind (its stratum in the pool), a label naming its
    input, whether the input is seed-dependent, and the calls to make."""

    __slots__ = ("kind", "label", "random", "run", "canon")

    def __init__(self, kind, label, is_random, run, canon):
        self.kind = kind
        self.label = label
        self.random = is_random
        self.run = run
        self.canon = canon


def import_corealg() -> SimpleNamespace:
    """Import corealg afresh (dropping any earlier import), so that set-up
    time includes the package's own import."""
    for name in [m for m in sys.modules if m == "corealg" or m.startswith("corealg.")]:
        del sys.modules[name]
    importlib.import_module("corealg")
    mod = {short: importlib.import_module("corealg." + name) for short, name in (
        ("sc", "scalar"), ("gr", "graph"), ("sa", "star_algebra"), ("ce", "core_endo"),
        ("ex", "exel_path"), ("hm", "hilbert_module"), ("uc", "uhf_cuntz"),
        ("kt", "ktheory"), ("dl", "dilation"), ("cli", "cli"))}
    return SimpleNamespace(**mod)


def interleave(cases: list[Case]) -> list[Case]:
    """Spread every kind evenly over the pool, in an order fixed by kind
    names alone: member j of a kind with n members sits at (j + o) / n,
    with o a fixed offset per kind; members are shuffled within their kind
    by a fixed stream."""
    kinds: dict[str, list[Case]] = {}
    for c in cases:
        kinds.setdefault(c.kind, []).append(c)
    keyed = []
    for kind, members in sorted(kinds.items()):
        order = random.Random("order:" + kind)
        idx = list(range(len(members)))
        order.shuffle(idx)
        offset = order.random()
        n = len(members)
        for j, i in enumerate(idx):
            keyed.append(((j + offset) / n, kind, j, members[i]))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def draw_new(draw, key, seen: set):
    """Call draw() until key(result) is not in `seen`, and add that key: a
    random case never repeats an input already in its pool."""
    for _ in range(1000):
        x = draw()
        k = key(x)
        if k not in seen:
            seen.add(k)
            return x
    raise RuntimeError("no new input after 1000 draws")


def rand_fraction(rnd: random.Random) -> Fraction:
    """Nonzero rational with numerator in [-3, 3] and denominator in [1, 4]."""
    num = rnd.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rnd.randint(1, 4))


def canon_star(z, level: int) -> str:
    """Canonical text of a balanced element over a graph with no singular
    vertex: its matrix-unit coefficients at one fixed level."""
    return z.expand_to_level(level).text() if not z.is_zero() else "0\n"


# -- shift-sweep ---------------------------------------------------------------


def _balanced_units(api, g, levels):
    out = []
    for lvl in levels:
        ps = g.paths(lvl)
        out.extend((lvl, api.sa.matrix_unit(g, mu, nu))
                   for mu in ps for nu in ps if mu.src == nu.src)
    return out


def _random_core(api, g, paths, rnd, words):
    """Sum of `words` random balanced words on the given paths, with random
    small rational coefficients (the element `core verify-beta` draws)."""
    x = api.sa.StarElement.zero(g)
    for _ in range(words):
        mu = rnd.choice(paths)
        nu = rnd.choice([p for p in paths if p.src == mu.src])
        x = x + api.sa.StarElement.word(g, rand_fraction(rnd), mu, nu)
    return x


def _beta_pair_check(endo, w, x, y) -> bool:
    """The three checks `core verify-beta` makes per pair."""
    bx, by = endo.beta(x), endo.beta(y)
    return (endo.beta(x * y).equal(bx * by)
            and endo.beta(x.adjoint()).equal(bx.adjoint())
            and bx.equal(w * x * w.adjoint()))


def _beta_pair_canon(endo, x, y, level) -> str:
    return (canon_star(x * y, level) + canon_star(endo.beta(x * y), level + 1)
            + canon_star(endo.beta(x), level + 1))


def _shift_graphs(api):
    return (("O_2", api.gr.bouquet(2), 3), ("O_3", api.gr.bouquet(3), 2),
            ("G3", api.gr.load_graph(G3_TEXT), 3))


# Pairs per case (exhaustive, random) for each graph.  A pair on O_3 costs
# about twice one on O_2 and three times one on G3, and a random pair about
# 2.5 times an exhaustive one; these sizes give every case about the same
# work (4 ms at the seed commit on the 2-core reference machine), so the
# case-time distribution has no gap at its median.
SHIFT_BATCH = {"O_2": (8, 3), "O_3": (4, 1), "G3": (11, 5)}
RANDOM_PAIRS = 600
# The matrix-unit certification of the level-1 words on O_3 (81 products of
# beta images) costs about eight slices.  One case in fifty is one, so the
# 99th percentile falls inside this class instead of at the edge of the
# slices, where any short slowdown of the machine moves it.  Each runs on
# its own relabelled copy of O_3, so no two have the same input.
UNIT_IMAGE_CASES = 80


def relabelled_bouquet(api, n: int, j: int):
    """O_n with vertex `w<j>` and edges `w<j>e1`..: the j-th copy."""
    v = "w%d" % j
    return api.gr.Graph([v], [("%se%d" % (v, i), v, v) for i in range(1, n + 1)])


def _batches(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _shift_case(kind, name, endo, w, batch, is_random) -> Case:
    """One case: a slice of a verify-beta sweep, `batch` being
    [(level, x, y, text of x, text of y)]."""
    label = ";".join("%s|%s|%s" % (name, tx, ty) for _, _, _, tx, ty in batch)
    return Case(
        kind, label, is_random,
        lambda: all(_beta_pair_check(endo, w, x, y) for _, x, y, _, _ in batch),
        lambda: "".join(_beta_pair_canon(endo, x, y, lv) for lv, x, y, _, _ in batch))


def build_shift_sweep(api, seed: int) -> list[Case]:
    rnd = random.Random(seed)
    cases = []
    for name, g, depth in _shift_graphs(api):
        endo = api.ce.CoreEndo(g)
        w = endo.build_W()
        size, random_size = SHIFT_BATCH[name]
        units = [(lvl, x, x.text()) for lvl, x in _balanced_units(api, g, range(1, depth + 1))]
        pairs = [(max(lx, ly), x, y, tx, ty) for lx, x, tx in units for ly, y, ty in units]
        seen = {(tx, ty) for _, _, _, tx, ty in pairs}
        random.Random("pairs:" + name).shuffle(pairs)
        for batch in _batches(pairs, size):
            cases.append(_shift_case("units/" + name, name, endo, w, batch, False))
        # Levels and word counts follow a fixed schedule, so that every seed
        # has the same mix of shapes and only paths and coefficients vary.
        paths_at = {lvl: g.paths(lvl) for lvl in range(1, depth + 1)}
        shapes = [(lx, nx, ly, ny) for lx in paths_at for nx in (1, 2, 3)
                  for ly in paths_at for ny in (1, 2, 3)]
        pairs = []
        for j in range(RANDOM_PAIRS):
            lx, nx, ly, ny = shapes[j % len(shapes)]
            x, y = draw_new(lambda: (_random_core(api, g, paths_at[lx], rnd, nx),
                                     _random_core(api, g, paths_at[ly], rnd, ny)),
                            lambda xy: (xy[0].text(), xy[1].text()), seen)
            pairs.append((max(lx, ly), x, y, x.text(), y.text()))
        for batch in _batches(pairs, random_size):
            cases.append(_shift_case("random/" + name, name, endo, w, batch, True))
    for j in range(UNIT_IMAGE_CASES):
        endo = api.ce.CoreEndo(relabelled_bouquet(api, 3, j))
        v = endo.graph.vertices[0]
        cases.append(Case("unit-images/O_3", "O_3 copy %s|level 1" % v, False,
                          lambda endo=endo, v=v: endo.matrix_unit_images(1, v)[1].passed,
                          lambda endo=endo, v=v: _unit_images_canon(endo, v)))
    return interleave(cases)


def _unit_images_canon(endo, v) -> str:
    family, report = endo.matrix_unit_images(1, v)
    return "".join(canon_star(x, 2) for _, x in sorted(
        family.items(), key=lambda kv: (kv[0][0].text(), kv[0][1].text()))) + _report_text(report)


def shift_sweep_controls(api) -> list[tuple[str, bool]]:
    """(name, detected) pairs; each must come out unequal."""
    out = []
    for name, g, _ in _shift_graphs(api):
        endo = api.ce.CoreEndo(g)
        w = endo.build_W()
        ps = g.paths(1)
        mu, nu = next((a, b) for a in ps for b in ps if a != b and a.src == b.src)
        x = api.sa.matrix_unit(g, mu, nu)
        y = x.adjoint()
        out.append(("%s beta(xy) vs beta(yx)" % name,
                    not endo.beta(x * y).equal(endo.beta(y * x))))
        out.append(("%s beta(x*) vs beta(x)" % name,
                    not endo.beta(x.adjoint()).equal(endo.beta(x))))
        out.append(("%s beta(x) vs W y W*" % name,
                    not endo.beta(x).equal(w * y * w.adjoint())))
    return out


# -- module-crosscheck ---------------------------------------------------------


def two_vertex_graphs(api, max_edges: int = 4):
    """The graphs on at most two vertices in which every vertex emits and
    receives an edge, with at most max_edges edges (33 for max_edges = 4):
    the A04 set, rebuilt here so that the benchmark does not import the tests."""
    out = [("bouquet%d" % n, api.gr.bouquet(n)) for n in range(1, max_edges + 1)]
    rng = range(max_edges + 1)
    for aa in rng:
        for ab in rng:
            for ba in rng:
                for bb in rng:
                    total = aa + ab + ba + bb
                    if total == 0 or total > max_edges:
                        continue
                    if aa + ab == 0 or ba + bb == 0 or aa + ba == 0 or ab + bb == 0:
                        continue
                    edges = []
                    for (src, rngv), k in ((("a", "a"), aa), (("a", "b"), ab),
                                           (("b", "a"), ba), (("b", "b"), bb)):
                        edges.extend(("%s%s%d" % (src, rngv, i), src, rngv) for i in range(k))
                    out.append(("m%d%d%d%d" % (aa, ab, ba, bb),
                                api.gr.Graph(["a", "b"], edges)))
    return out


def _module_image(api, g, mu, nu):
    """beta of t_mu t_nu^* by the module route: conjugate the rank-one
    operator by U and translate back into the graph algebra."""
    hm = api.hm
    system = hm.GraphFrameSystem(g)
    theta = hm.CompactOp.from_theta(hm.ModuleElement.basis_word(system, tuple(mu.edges)),
                                    hm.ModuleElement.basis_word(system, tuple(nu.edges)))
    return hm.compact_to_star(hm.conj_beta(theta))


def _report_text(report) -> str:
    return "\n".join(report.lines()) + "\n"


def _random_tensor(api, rnd, n, depth, count):
    words = api.uc.words(n, depth)
    entries = {}
    for _ in range(count):
        entries[(rnd.choice(words), rnd.choice(words))] = rand_fraction(rnd)
    return api.uc.TensorElement(n, depth, entries)


# pi_T_report elements per case for each tensor system: a (3,2) element
# costs about five times a (2,1) one and twice a (2,2) one, so every pi_T
# case does about the same work and the median falls inside them.
PI_T_BATCH = {"2,1": 5, "2,2": 2, "3,2": 1}


def build_module_crosscheck(api, seed: int) -> list[Case]:
    rnd = random.Random(seed)
    hm, uc = api.hm, api.uc
    cases = []

    def crosscheck(kind, name, g, mu, nu):
        cases.append(Case(
            kind, "%s|%s|%s" % (name, mu.text(), nu.text()), False,
            lambda: hm.beta_crosscheck(g, mu, nu).passed,
            lambda: (canon_star(_module_image(api, g, mu, nu), len(mu) + 1)
                     + _report_text(hm.beta_crosscheck(g, mu, nu)))))

    for name, g in two_vertex_graphs(api):
        for mu in g.paths(1):
            for nu in g.paths(1):
                crosscheck("crosscheck-1", name, g, mu, nu)
    for name, g in (("O_3", api.gr.bouquet(3)), ("G3", api.gr.load_graph(G3_TEXT))):
        ps = g.paths(2)
        for mu in ps:
            for nu in ps:
                crosscheck("crosscheck-2/" + name, name, g, mu, nu)

    graph_systems = [("O_2", hm.GraphFrameSystem(api.gr.bouquet(2))),
                     ("2-cycle", hm.GraphFrameSystem(api.gr.cycle(2))),
                     ("G3", hm.GraphFrameSystem(api.gr.load_graph(G3_TEXT)))]
    tensor_systems = [("%d,%d" % nN, uc.UhfSystem(*nN)) for nN in ((2, 1), (2, 2), (3, 2))]
    frame_systems = graph_systems + [(name, hm.UhfFrameSystem(s)) for name, s in tensor_systems]
    for name, system in frame_systems:
        for depth in ((1, 2, 3) if system.kind == "graph" else (1, 2)):
            cases.append(Case(
                "build_U", "%s|depth %d" % (name, depth), False,
                lambda system=system, depth=depth: hm.build_U(system, depth)[1].passed,
                lambda system=system, depth=depth: (
                    hm.build_U(system, depth)[0].text()
                    + _report_text(hm.build_U(system, depth)[1]))))
        for degree in ((1, 2) if system.kind == "graph" else (1,)):
            cases.append(Case(
                "u_isometry", "%s|degree %d" % (name, degree), False,
                lambda system=system, degree=degree: hm.u_isometry_report(system, degree).passed,
                lambda system=system, degree=degree: _report_text(
                    hm.u_isometry_report(system, degree))))

    for name, s in tensor_systems:
        g, family = uc.canonical_cuntz_family(s)
        size = PI_T_BATCH[name]

        def pi_cases(kind, elements, is_random, s=s, family=family, size=size):
            for batch in _batches(elements, size):
                cases.append(Case(
                    kind, ";".join("%s|%s" % (name, a.text()) for a in batch), is_random,
                    lambda batch=batch: all(uc.pi_T_report(s, family, a).passed for a in batch),
                    lambda batch=batch: "".join(canon_star(uc.pi_T(s, family, a), a.k) + a.text()
                                                for a in batch)))

        def prefix_case(kind, label, a, m, is_random, s=s):
            cases.append(Case(
                kind, label, is_random,
                lambda: uc.prefix_rep_sweep(s, a, m).passed,
                lambda: uc.uhf_L(s, a).lift(m).text()))

        units = []
        seen_pi, seen_prefix = set(), set()
        for k in (0, 1, 2):
            for mu in uc.words(s.n, k):
                for nu in uc.words(s.n, k):
                    a = uc.TensorElement.unit_entry(s.n, mu, nu)
                    if k:
                        units.append(a)
                        seen_pi.add(a.text())
                    for m in range(k + 1, 5):
                        seen_prefix.add((a.text(), m))
                        prefix_case("prefix", "%s|%r|%r|m%d" % (name, mu, nu, m), a, m, False)
        pi_cases("pi_T", units, False)
        # depths, entry counts and prefix lengths follow fixed schedules;
        # only the entries vary with the seed
        shapes = [(k, count) for k in (1, 2) for count in (1, 2, 3)]
        pi_cases("random-pi_T", [
            draw_new(lambda shape=shapes[j % len(shapes)]: _random_tensor(api, rnd, s.n, *shape),
                     lambda a: a.text(), seen_pi)
            for j in range(50)], True)
        shapes = [(k, count, m) for k in (0, 1, 2) for count in (1, 2, 3)
                  for m in range(k + 1, 5)]
        for j in range(90):
            k, count, m = shapes[j % len(shapes)]
            a = draw_new(lambda: _random_tensor(api, rnd, s.n, k, count),
                         lambda a: (a.text(), m), seen_prefix)
            prefix_case("random-prefix", "%s|m%d|%s" % (name, m, a.text()), a, m, True)
    return interleave(cases)


def module_crosscheck_controls(api) -> list[tuple[str, bool]]:
    hm, uc = api.hm, api.uc
    out = []
    g = api.gr.load_graph(G3_TEXT)
    x, y = g.parse_path("x"), g.parse_path("y")
    direct_swapped = api.ce.CoreEndo(g).beta(api.sa.matrix_unit(g, y, x))
    out.append(("module route (x, y) vs direct beta of (y, x)",
                not _module_image(api, g, x, y).equal(direct_swapped)))
    system = hm.GraphFrameSystem(g)
    m_x = hm.ModuleElement.basis_word(system, ("x",))
    m_y = hm.ModuleElement.basis_word(system, ("y",))
    out.append(("U*U F_x vs F_y", not hm.U_star_map(system, hm.U_map(system, m_x)).equal(m_y)))
    s = uc.UhfSystem(2, 1)
    a = uc.TensorElement.unit_entry(2, (2,), (2,))
    out.append(("uhf L(e_22) vs e_22", not uc.uhf_L(s, a).equal(a)))
    return out


# -- rational-lattice ----------------------------------------------------------

LATTICE_MATRICES = (
    ([[2]], 4), ([[3]], 4),
    ([[2, 1], [0, 3]], 3), ([[1, 1], [-1, 1]], 3),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 1), ([[2, 1, 0], [0, 2, 1], [1, 0, 2]], 1),
)


# Random transfer pairs per case: a pair on the 2-cycle costs about a fifth
# of one on O_3, and as single cases they made a cluster of cheap cases just
# below the median, where the median jumped with small changes of machine
# speed.  Four to a case puts them next to the other kinds.
TRANSFER_BATCH = {"O_3": 1, "2-cycle": 4}


def _random_depth_function(api, g, rnd, depth):
    vals = {p: rand_fraction(rnd) for p in g.paths(depth) if rnd.randrange(2)}
    return api.ex.DepthFunction(g, depth, vals)


def _transfer_check(api, a, b) -> bool:
    ex = api.ex
    return (ex.transfer_identity_check(a, b).passed
            and ex.transfer_L(ex.alpha_shift(a)).equal(a))


def _transfer_canon(api, a, b) -> str:
    ex = api.ex
    return ex.transfer_L(ex.alpha_shift(a) * b).lift(3).text() + "|" + \
        ex.transfer_L(b).lift(3).text()


def _int_matrix(rnd, size):
    return [[rnd.randint(-3, 3) for _ in range(size)] for _ in range(size)]


def bareiss_det(m) -> int:
    """Integer determinant by Bareiss elimination, independent of corealg."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _paschke_check(api, m) -> bool:
    """The six-term corners of beta_star = m + 1 come from the Smith form
    of m; |K_0| must equal |det m| when m is nonsingular."""
    size = len(m)
    beta_star = [[m[i][j] + (1 if i == j else 0) for j in range(size)] for i in range(size)]
    res = api.kt.paschke_sequence(beta_star, True)
    det = abs(bareiss_det(m))
    if det == 0:
        return res.k0.free_rank > 0 and res.k1.free_rank == res.k0.free_rank
    return res.k0.order() == det and res.k1.is_trivial


def _smith_canon(api, m) -> str:
    _, d, _ = api.kt.smith_normal_form(m)
    return ",".join(str(d[i][i]) for i in range(len(m)))


def _ktheory_check(api, g) -> bool:
    kt = api.kt
    res = kt.graph_k_theory(g)
    verts, a = kt.vertex_matrix(g)
    n = len(verts)
    classic = [[a[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return res.report.passed and kt.coker_ker(classic) == (res.k0, res.k1.free_rank)


def _ktheory_canon(api, g) -> str:
    res = api.kt.graph_k_theory(g)
    return "%s|%s|%r" % (res.k0.text(), res.k1.text(), res.beta_star)


def build_rational_lattice(api, seed: int) -> list[Case]:
    rnd = random.Random(seed)
    ex, dl, kt = api.ex, api.dl, api.kt
    cases = []

    def depth_text(a) -> str:
        return "depth %d\n%s" % (a.depth, a.text())

    for name, g, depth in (("O_3", api.gr.bouquet(3), 2), ("2-cycle", api.gr.cycle(2), 3)):
        seen = set()
        for k in range(1, depth + 1):
            for p in g.paths(k):
                for q in g.paths(k):
                    a, b = ex.DepthFunction.indicator(g, p), ex.DepthFunction.indicator(g, q)
                    seen.add((depth_text(a), depth_text(b)))
                    cases.append(Case(
                        "transfer", "%s|%s|%s" % (name, p.text(), q.text()), False,
                        lambda a=a, b=b: _transfer_check(api, a, b),
                        lambda a=a, b=b: _transfer_canon(api, a, b)))
        pairs = []
        for j in range(450):    # depths follow a fixed schedule, values vary
            pairs.append(draw_new(
                lambda: (_random_depth_function(api, g, rnd, 1 + j % 3),
                         _random_depth_function(api, g, rnd, 1 + j // 3 % 3)),
                lambda ab: (depth_text(ab[0]), depth_text(ab[1])), seen))
        for batch in _batches(pairs, TRANSFER_BATCH[name]):
            cases.append(Case(
                "random-transfer/" + name,
                ";".join("%s|%s|%s" % (name, depth_text(a), depth_text(b)) for a, b in batch),
                True,
                lambda batch=batch: all(_transfer_check(api, a, b) for a, b in batch),
                lambda batch=batch: "".join(_transfer_canon(api, a, b) for a, b in batch)))

    for b, radius in LATTICE_MATRICES:
        system = dl.LatticeSystem(b)
        label = repr(b)
        cases.append(Case(
            "lattice_rep", "%s|r%d" % (label, radius), False,
            lambda system=system, radius=radius: dl.lattice_rep_check(system, radius).passed,
            lambda system=system, radius=radius: _report_text(
                dl.lattice_rep_check(system, radius))))
        for i in range(1, 4 if system.d < 3 else 3):
            pts = dl.sigma_i(system, i, verify=False)
            cases.append(Case(
                "transversal", "%s|level %d" % (label, i), False,
                lambda system=system, pts=pts, i=i: dl.transversal_check(
                    system, pts, power=i).passed,
                lambda system=system, pts=pts, i=i: _report_text(
                    dl.transversal_check(system, pts, power=i))))
        beta_radius = 2 if system.d < 3 else 1
        seen = set()
        for m in system.Sigma:
            for n in system.Sigma:
                for power in (0, 1):
                    term = (m, power, n)
                    seen.add(term)
                    cases.append(Case(
                        "dilation_beta", "%s|%r" % (label, term), False,
                        lambda system=system, term=term, r=beta_radius: dl.dilation_beta(
                            system, term, radius=r)[1].passed,
                        lambda system=system, term=term, r=beta_radius: repr(dl.dilation_beta(
                            system, term, radius=r)[0])))
        for j in range(10):
            term = draw_new(lambda: (tuple(rnd.randint(-3, 3) for _ in range(system.d)), j % 3,
                                     tuple(rnd.randint(-3, 3) for _ in range(system.d))),
                            lambda term: term, seen)
            cases.append(Case(
                "random-dilation_beta", "%s|%r" % (label, term), True,
                lambda system=system, term=term, r=beta_radius: dl.dilation_beta(
                    system, term, radius=r)[1].passed,
                lambda system=system, term=term, r=beta_radius: repr(dl.dilation_beta(
                    system, term, radius=r)[0])))

    # sizes follow a fixed schedule so that every seed has the same tail
    fixed = random.Random("smith-fixed")
    seen = set()
    for size in range(4, 21, 2):
        m = _int_matrix(fixed, size)
        seen.add(repr(m))
        cases.append(Case("smith", "fixed|%r" % (m,), False,
                          lambda m=m: _paschke_check(api, m),
                          lambda m=m: _smith_canon(api, m)))
    for j in range(36):
        m = draw_new(lambda: _int_matrix(rnd, 4 + j % 17), repr, seen)
        cases.append(Case("random-smith", "random|%r" % (m,), True,
                          lambda m=m: _paschke_check(api, m),
                          lambda m=m: _smith_canon(api, m)))

    family = [("bouquet%d" % n, api.gr.bouquet(n)) for n in range(2, 7)]
    family += [("cycle%d" % n, api.gr.cycle(n)) for n in range(1, 5)]
    family += [(name, g) for name, g in two_vertex_graphs(api, 3) if len(g.vertices) == 2]
    family.append(("G3", api.gr.load_graph(G3_TEXT)))
    for name, g in family:
        cases.append(Case("ktheory", name, False,
                          lambda g=g: _ktheory_check(api, g),
                          lambda g=g: _ktheory_canon(api, g)))
    return interleave(cases)


def rational_lattice_controls(api) -> list[tuple[str, bool]]:
    ex, dl, kt = api.ex, api.dl, api.kt
    out = []
    g = api.gr.bouquet(3)
    a = ex.DepthFunction.indicator(g, g.parse_path("e1"))
    b = ex.DepthFunction.indicator(g, g.parse_path("e1.e2"))
    lhs = ex.transfer_L(ex.alpha_shift(a) * b)
    bump = ex.DepthFunction.indicator(g, g.parse_path("e2")) * Fraction(1, 7)
    out.append(("perturbed L(alpha(a)b)", not lhs.equal(ex.transfer_L(b) * a + bump)))
    system = dl.LatticeSystem([[2, 1], [0, 3]])
    pts = list(system.Sigma)
    pts[-1] = tuple(x + y for x, y in zip(pts[0], system.apply((1, 0))))
    out.append(("transversal with a repeated coset",
                not dl.transversal_check(system, pts, power=1).passed))
    m = [[2, 0], [0, 3]]
    out.append(("K_0 of a perturbed matrix",
                kt.coker_ker(m) != kt.coker_ker([[2, 0], [0, 4]])))
    return out


BUILDERS = {
    "shift-sweep": build_shift_sweep,
    "module-crosscheck": build_module_crosscheck,
    "rational-lattice": build_rational_lattice,
}

CONTROLS = {
    "shift-sweep": shift_sweep_controls,
    "module-crosscheck": module_crosscheck_controls,
    "rational-lattice": rational_lattice_controls,
}

# The representative command per workload, run in-process with --json at a
# fixed seed; its output bytes are compared with golden/cli-<workload>.json.
CLI_COMMANDS = {
    "shift-sweep": ["core", "verify-beta", "perfbench/graphs/o2.graph", "--depth", "2",
                    "--json"],
    "module-crosscheck": ["module", "crosscheck", "perfbench/graphs/g3.graph", "--level", "2",
                          "--json"],
    "rational-lattice": ["dilation", "verify", "--matrix", "2,1;0,3", "--box", "3", "--json"],
}

# Cases in the traced run: a prefix of the pool, sized for a few seconds
# untraced.  The pool's even spread keeps the prefix's mix that of the pool.
TRACE_CASES = {
    "shift-sweep": 800,
    "module-crosscheck": 300,
    "rational-lattice": 1200,
}
