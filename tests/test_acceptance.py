"""Acceptance suite: twelve end-to-end checks, one test per item.

Each test prints a single `A## <label>: PASS` line once its assertions hold
(visible with `pytest -s`; under plain `pytest -v` the per-test PASSED/FAILED
line carries the same information).  Everything is exact rational or radical
arithmetic except A12, whose numeric tolerances are pinned below.
"""

import numpy as np

from conftest import two_vertex_graphs

from corealg.core_endo import CoreEndo
from corealg.exel_path import (
    DepthFunction,
    alpha_shift,
    transfer_L,
    transfer_identity_check,
)
from corealg.graph import Graph, bouquet, cycle
from corealg.hilbert_module import (
    GraphFrameSystem,
    ModuleElement,
    UhfFrameSystem,
    beta_crosscheck,
    build_U,
    canonical_frame,
    frame_rep_psi,
    gram_psd_check,
    iso_generators_check,
    u_element,
    u_isometry_report,
)
from corealg.ktheory import (
    GroupPresentation,
    coker_ker,
    graph_k_theory,
    paschke_sequence,
    vertex_matrix,
)
from corealg.dilation import (
    LatticeSystem,
    lattice_rep_check,
    sigma_i,
    transversal_check,
)
from corealg.scalar import Radical
from corealg.star_algebra import (
    StarElement,
    edge_isometry,
    matrix_unit,
    op_norm,
    unit,
    vertex_projection,
)
from corealg.uhf_cuntz import (
    TensorElement,
    UhfSystem,
    canonical_cuntz_family,
    pi_T,
    pi_T_report,
    prefix_rep_sweep,
    words,
)
from corealg.util import SplitMix64

NORM_TOL = 1e-9
PSD_TOL = 1e-9

THREE_GRAPHS = (("O_2", bouquet(2)), ("O_3", bouquet(3)), ("2-cycle", cycle(2)))
UHF_SYSTEMS = ((2, 1), (2, 2), (3, 2))


def _core_units(g, levels=(1, 2)):
    """Balanced matrix units t_mu t_nu^* with |mu| = |nu| in the given levels."""
    out = []
    for lvl in levels:
        ps = g.paths(lvl)
        out.extend(matrix_unit(g, mu, nu)
                   for mu in ps for nu in ps if mu.src == nu.src)
    return out


def _random_core(g, rng, max_level=2):
    lvl = 1 + rng.below(max_level)
    ps = g.paths(lvl)
    x = StarElement.zero(g)
    for _ in range(1 + rng.below(2)):
        mu = rng.choice(ps)
        srcs = [p for p in ps if p.src == mu.src]
        c = rng.fraction()
        if c:
            x = x + StarElement.word(g, c, mu, rng.choice(srcs))
    return x


def _item1_cases():
    """Shared by A01 and A02: per graph, the exhaustive unit list and the
    seeded random elements."""
    cases = []
    for label, g in THREE_GRAPHS:
        rng = SplitMix64(2024)
        units = _core_units(g)
        randoms = [_random_core(g, rng) for _ in range(100)]
        cases.append((label, g, units, randoms))
    return cases


def test_a01_beta_homomorphism():
    """beta(xy) = beta(x)beta(y) and beta(x*) = beta(x)* over exhaustive
    level-<=2 matrix-unit pairs plus 100 seeded random balanced elements."""
    for label, g, units, randoms in _item1_cases():
        endo = CoreEndo(g)
        images = [(x, endo.beta(x)) for x in units]
        for x, bx in images:
            assert endo.beta(x.adjoint()).equal(bx.adjoint()), label
            for y, by in images:
                assert endo.beta(x * y).equal(bx * by), label
        pairs = list(zip(randoms[0::2], randoms[1::2]))
        for x, y in pairs:
            assert endo.beta(x * y).equal(endo.beta(x) * endo.beta(y)), label
            assert endo.beta(x.adjoint()).equal(endo.beta(x).adjoint()), label
            assert endo.beta(y.adjoint()).equal(endo.beta(y).adjoint()), label
    print("A01 shift endomorphism is a *-homomorphism: PASS")


def test_a02_covariance_oracle():
    """beta(x) = W x W* for every element of the A01 sweep, and W*W is the
    sum of the vertex projections (the unit)."""
    for label, g, units, randoms in _item1_cases():
        endo = CoreEndo(g)
        W = endo.build_W()
        p_sum = StarElement.zero(g)
        for v in g.vertices:
            p_sum = p_sum + vertex_projection(g, v)
        assert (W.adjoint() * W).equal(p_sum), label
        for x in units + randoms:
            assert endo.beta(x).equal(W * x * W.adjoint()), label
    print("A02 covariance beta(x) = WxW*: PASS")


def test_a03_matrix_unit_certification():
    """The beta images of level-1 and level-2 words multiply as matrix units,
    exhaustively per source vertex."""
    for label, g in THREE_GRAPHS:
        endo = CoreEndo(g)
        for lvl in (1, 2):
            for v in g.vertices:
                family, report = endo.matrix_unit_images(lvl, v)
                assert report.passed, (label, lvl, v, report.lines())
                assert family, (label, lvl, v)
    print("A03 matrix unit certification at levels 1-2: PASS")


def test_a04_two_oracle_equivalence():
    """The module-theoretic route (conjugation by U on compact operators) and
    the direct formula agree on every level-1 pair over every graph with at
    most 2 vertices and 4 edges."""
    graphs = two_vertex_graphs(4)
    assert len(graphs) > 20
    for label, g in graphs:
        for mu in g.paths(1):
            for nu in g.paths(1):
                report = beta_crosscheck(g, mu, nu)
                assert report.passed, (label, mu.text(), nu.text(), report.lines())
    print("A04 two independent beta oracles agree (%d graphs): PASS" % len(graphs))


def test_a05_transfer_calculus():
    """L(alpha(a)b) = aL(b) exhaustively on depth-<=2 indicators and on 100
    random rational functions; L(1) = 1; L(alpha(a)) = a."""
    for label, g in (("O_2", bouquet(2)), ("2-cycle", cycle(2))):
        one = DepthFunction.constant(g, 1)
        assert transfer_L(one).equal(one), label
        indicators = [DepthFunction.indicator(g, mu)
                      for n in (0, 1, 2) for mu in g.paths(n)]
        for a in indicators:
            assert transfer_L(alpha_shift(a)).equal(a), label
            for b in indicators:
                report = transfer_identity_check(a, b)
                assert report.passed, (label, report.lines())
        rng = SplitMix64(7)
        lvl2 = g.paths(2)
        for _ in range(100):
            a = DepthFunction(g, 2, {p: rng.fraction() for p in lvl2
                                     if rng.below(2)})
            b = DepthFunction(g, 2, {p: rng.fraction() for p in lvl2
                                     if rng.below(2)})
            assert transfer_identity_check(a, b).passed, label
            assert transfer_L(alpha_shift(a)).equal(a), label
    print("A05 transfer operator calculus: PASS")


def test_a06_u_isometry():
    """U*U = 1 and U*(q(a)) = L(a), exactly, at truncation depths 1 to 3,
    for the graph system and for the tensor-corner systems."""
    systems = [GraphFrameSystem(bouquet(2)), GraphFrameSystem(cycle(2)),
               UhfFrameSystem(UhfSystem(2, 1)), UhfFrameSystem(UhfSystem(2, 2))]
    for system in systems:
        for depth in (1, 2, 3):
            _, report = build_U(system, depth)
            assert report.passed, (system.kind, depth, report.lines())
        report = u_isometry_report(system, 1)
        assert report.passed, (system.kind, report.lines())
    print("A06 truncated isometry U: PASS")


def test_a07_isometry_dictionary_chain():
    """Frame orthonormality, multiplicativity of the isometry dictionary, the
    compression relation, and the frame representation identities, for the
    three tensor-corner systems."""
    for n, N in UHF_SYSTEMS:
        sys = UhfSystem(n, N)
        fsys = UhfFrameSystem(sys)
        frame_report = canonical_frame(fsys)
        assert frame_report.passed, (n, N, frame_report.lines())

        g, family = canonical_cuntz_family(sys)
        for k in (1, 2):
            for mu in words(n, k):
                for nu in words(n, k):
                    a = TensorElement.unit_entry(n, mu, nu)
                    report = pi_T_report(sys, family, a)
                    assert report.passed, (n, N, mu, nu, report.lines())

        def pi(b, sys=sys, family=family):
            return pi_T(sys, family, b)

        psi, rep_report = frame_rep_psi(fsys, family, pi)
        assert rep_report.passed, (n, N, rep_report.lines())
        for idx in fsys.indices:
            m = ModuleElement.basis_word(fsys, (idx,))
            assert psi(m).equal(family[idx]), (n, N, idx)

        full = iso_generators_check(sys)
        assert full.passed, (n, N, full.lines())
    print("A07 isometry dictionary chain: PASS")


def test_a08_prefix_representation():
    """The transfer operator acts as averaging over first letters in the
    length-m prefix model, for every matrix unit of depth <= 2 and every
    prefix length m <= 4."""
    for n, N in ((2, 1), (3, 2)):
        sys = UhfSystem(n, N)
        for k in (0, 1, 2):
            for mu in words(n, k):
                for nu in words(n, k):
                    a = TensorElement.unit_entry(n, mu, nu)
                    for m in range(k + 1, 5):
                        report = prefix_rep_sweep(sys, a, m)
                        assert report.passed, (n, N, mu, nu, m, report.lines())
    print("A08 prefix representation identity: PASS")


def test_a09_dilation_relations():
    """The three defining relations of the lattice dilation representation on
    every basis vector in box radius 8, and transversal counts |Sigma_i| =
    |det B|^i for i <= 3."""
    matrices = ([[2]], [[2, 0], [0, 2]], [[1, 1], [-1, 1]], [[2, 0], [0, 3]])
    for b in matrices:
        sys = LatticeSystem(b)
        report = lattice_rep_check(sys, radius=8)
        assert report.passed, (b, report.lines())
        for i in (1, 2, 3):
            pts = sigma_i(sys, i)
            assert len(pts) == sys.det_abs ** i, (b, i)
            check = transversal_check(sys, pts, power=i)
            assert check.passed, (b, i, check.lines())
    print("A09 dilation relations and transversals: PASS")


def test_a10_i_expansion():
    """The level decomposition recombines to the input, is idempotent, and
    two presentations of the same element produce identical components."""
    single = Graph(["a", "b"], [("x", "a", "b")])
    p_a = vertex_projection(single, "a")
    t = edge_isometry(single, "x")
    samples_single = [p_a + vertex_projection(single, "b"),
                      p_a, t * t.adjoint()]
    g2 = bouquet(2)
    rng = SplitMix64(41)
    samples_o2 = [unit(g2), vertex_projection(g2, "v").expand_to_level(1)]
    samples_o2 += [_random_core(g2, rng) for _ in range(5)]

    for g, samples in ((single, samples_single), (g2, samples_o2)):
        for x in samples:
            for i in range(x.max_level(), 4):
                comps = x.i_expand(i)
                total = StarElement.zero(g)
                for c in comps:
                    total = total + c
                assert total.equal(x), (g, i)
                again = [c.i_expand(i) for c in comps]
                for j, c in enumerate(comps):
                    assert again[j][j].equal(c), (g, i, j)
                    for kk in range(i + 1):
                        if kk != j:
                            assert again[j][kk].is_zero(), (g, i, j, kk)

    # Uniqueness across presentations: the same element written at level 0
    # and at level 1 decomposes into the same components.
    pb = vertex_projection(single, "b")
    for i in (1, 2, 3):
        left = pb.i_expand(i)
        right = (t * t.adjoint()).i_expand(i)
        assert all(l.equal(r) for l, r in zip(left, right)), i
    u = unit(g2)
    for i in (1, 2, 3):
        left = u.i_expand(i)
        right = u.expand_to_level(1).i_expand(i)
        assert all(l.equal(r) for l, r in zip(left, right)), i
    print("A10 level decomposition (recombines, idempotent, unique): PASS")


def test_a11_k_theory_golden_values():
    """Bouquet and loop invariants, agreement with the classical cokernel
    formula, and the six-term corner computation for the tensor systems."""
    for n in range(2, 7):
        result = graph_k_theory(bouquet(n))
        assert result.k1.is_trivial, n
        expected = "0" if n == 2 else "Z/%d" % (n - 1)
        assert result.k0.text() == expected, n

    loop = graph_k_theory(cycle(1))
    assert (loop.k0.text(), loop.k1.text()) == ("Z", "Z")

    for g in (bouquet(2), bouquet(3), cycle(1), cycle(2)):
        result = graph_k_theory(g)
        verts, a = vertex_matrix(g)
        size = len(verts)
        classic = [[a[j][i] - (1 if i == j else 0) for j in range(size)]
                   for i in range(size)]
        group, ker = coker_ker(classic)
        assert result.k0.text() == group.text()
        assert result.k1.text() == GroupPresentation(ker, ()).text()

    for n, N in UHF_SYSTEMS:
        r = paschke_sequence([[n * N]], True)
        expected = "0" if n * N == 2 else "Z/%d" % (n * N - 1)
        assert r.k0.text() == expected, (n, N)
        assert r.k1.text() == "0", (n, N)
        via_graph = graph_k_theory(bouquet(n * N))
        assert r.k0.text() == via_graph.k0.text(), (n, N)
    print("A11 K-theory golden values: PASS")


def _gram_eigenvalue_floor(system, elements) -> float:
    """The least eigenvalue of the numeric Gram matrix of the elements, as
    an oracle beside the exact check: one block per path at the entries'
    depth for the graph system, one block matrix of words for the tower."""
    entries = [[mi.inner(mj) for mj in elements] for mi in elements]
    cells = [cell for row in entries for cell in row]
    if system.kind == "graph":
        depth = max(cell.depth for cell in cells)
        blocks = [np.array([[float(cell.value(lam)) for cell in row] for row in entries])
                  for lam in system.graph.paths(depth)]
    else:
        depth = max(cell.k for cell in cells)
        index = {w: i for i, w in enumerate(words(system.sys.n, depth))}

        def numeric(cell):
            mat = np.zeros((len(index), len(index)))
            for (mu, nu), c in cell.lift(depth).terms.items():
                mat[index[mu], index[nu]] = float(c)
            return mat
        blocks = [np.block([[numeric(cell) for cell in row] for row in entries])]
    return min(float(np.linalg.eigvalsh(0.5 * (b + b.T)).min()) for b in blocks)


def test_a12_numeric_norms():
    """op_norm(W) = 1 within 1e-9; vertex projections have norm exactly 1.0;
    Gram matrices of frame elements are C*C exactly, and positive
    semidefinite to 1e-9 numerically."""
    for label, g in THREE_GRAPHS:
        W = CoreEndo(g).build_W()
        res = op_norm(W)
        assert abs(res.value - 1.0) <= NORM_TOL, (label, res)
        for v in g.vertices:
            assert op_norm(vertex_projection(g, v)).value == 1.0, (label, v)

    gsys = GraphFrameSystem(bouquet(2))
    elems = [ModuleElement.basis_word(gsys, (e,)) for e in ("e1", "e2")]
    elems += [u_element(gsys),
              elems[0] + elems[1].right_mul(Radical.sqrt(3))]
    assert gram_psd_check(gsys, elems).passed
    assert _gram_eigenvalue_floor(gsys, elems) >= -PSD_TOL

    usys = UhfFrameSystem(UhfSystem(2, 2))
    uelems = [ModuleElement.basis_word(usys, (idx,)) for idx in usys.indices]
    uelems.append(u_element(usys))
    assert gram_psd_check(usys, uelems).passed
    assert _gram_eigenvalue_floor(usys, uelems) >= -PSD_TOL
    print("A12 numeric norms and positivity: PASS")
