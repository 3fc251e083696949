"""Command-line front end: verification sweeps and small computations.

Reports are deterministic for a fixed argv and seed: the only line that may
differ between runs is the timestamp header, and sweeps draw their randomness
from a seeded splitmix64 stream.

Exit codes: 0 all checks passed, 1 at least one verification failed,
2 bad input (unparseable file, bad flag, violated precondition).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import dilation as dl
from . import ktheory as kt
from . import uhf_cuntz as uc
from .core_endo import CoreEndo
from .exel_path import (
    DepthFunction,
    alpha_shift,
    exel_relations_check,
    transfer_L,
    transfer_identity_check,
)
from .graph import Graph, bouquet, load_graph
from .hilbert_module import (
    GraphFrameSystem,
    ModuleElement,
    UhfFrameSystem,
    beta_crosscheck,
    build_U,
    canonical_frame,
    gram_psd_check,
    iso_generators_check,
    reconstruct_check,
    u_isometry_report,
)
from .scalar import ONE
from .star_algebra import StarElement, matrix_unit, op_norm, parse_element, unit
from .util import CheckReport, SplitMix64


class CliError(Exception):
    """Bad input; maps to exit code 2."""


class RunReport:
    """Collects check sections and computed output for one invocation."""

    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.sections: list[CheckReport] = []
        self.data: list[str] = []

    def add(self, section: CheckReport) -> None:
        self.sections.append(section)

    def say(self, line: str) -> None:
        self.data.append(line)

    @property
    def checks(self) -> int:
        return sum(s.checks for s in self.sections)

    @property
    def failed(self) -> int:
        return sum(len(s.failures) for s in self.sections)

    @property
    def result(self) -> str:
        # a run that checked nothing only computed: it did not pass anything
        if self.failed:
            return "FAIL"
        return "PASS" if self.checks else "computed"

    def body_lines(self) -> list[str]:
        out = ["command: %s" % self.command, "seed: %d" % self.seed]
        out.extend(self.data)
        for s in self.sections:
            out.extend(s.lines())
        out.append("checks: %d  passed: %d  failed: %d"
                   % (self.checks, self.checks - self.failed, self.failed))
        out.append("result: %s" % self.result)
        return out

    def text(self) -> str:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return "\n".join(["# run %s" % stamp] + self.body_lines()) + "\n"

    def json_text(self) -> str:
        doc = {
            "command": self.command,
            "seed": self.seed,
            "output": self.data,
            "sections": [{"name": s.name, "checks": s.checks, "failures": s.failures}
                         for s in self.sections],
            "checks": self.checks,
            "failed": self.failed,
            "result": self.result,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def _load_graph(path: str) -> Graph:
    try:
        return load_graph(_read(path))
    except ValueError as exc:
        raise CliError("bad graph file %s: %s" % (path, exc))


def _load_element(g: Graph, path: str) -> StarElement:
    try:
        return parse_element(g, _read(path))
    except ValueError as exc:
        raise CliError("bad element file %s: %s" % (path, exc))


def _checked(compute, *args):
    """compute(*args), with a ValueError (a violated precondition) as bad input."""
    try:
        return compute(*args)
    except ValueError as exc:
        raise CliError(str(exc))


def _require_at_least(args, flag: str, low: int) -> None:
    value = getattr(args, flag)
    if value < low:
        raise CliError("--%s must be at least %d, got %d" % (flag, low, value))


def parse_int_matrix(text: str) -> list[list[int]]:
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.split(";") if row.strip()]
    except ValueError as exc:
        raise CliError("bad matrix %r: %s" % (text, exc))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise CliError("bad matrix %r: ragged or empty" % text)
    return rows


def parse_points(text: str) -> list[tuple[int, ...]]:
    try:
        return [tuple(int(x) for x in row.split(",")) for row in text.split(";") if row.strip()]
    except ValueError as exc:
        raise CliError("bad point list %r: %s" % (text, exc))


# -- graph ------------------------------------------------------------------------


def cmd_graph_info(args, report: RunReport) -> None:
    g = _load_graph(args.file)
    report.say("vertices: %d" % len(g.vertices))
    report.say("edges: %d" % len(g.edge_names))
    for v in g.vertices:
        report.say("vertex %s: out %d, in %d" % (v, len(g.out_edges(v)), len(g.in_edges(v))))
    singular = [v for v in g.vertices if not g.in_edges(v)]
    regular = [v for v in g.vertices if g.in_edges(v)]
    report.say("regular: %s" % (",".join(sorted(regular)) if regular else "-"))
    report.say("singular: %s" % (",".join(sorted(singular)) if singular else "-"))
    report.say("beta_admissible: %s" % str(g.beta_admissible).lower())
    report.say("path_space_admissible: %s" % str(g.path_space_admissible).lower())
    report.say("all_regular: %s" % str(g.all_regular).lower())


# -- core -------------------------------------------------------------------------


def cmd_core_mul(args, report: RunReport) -> None:
    g = _load_graph(args.graph)
    a = _load_element(g, args.a)
    b = _load_element(g, args.b)
    try:
        product = a * b
    except OverflowError as exc:
        raise CliError("product: %s" % exc)
    report.say("product:")
    report.data.extend(product.text().rstrip("\n").split("\n"))


def cmd_core_beta(args, report: RunReport) -> None:
    g = _load_graph(args.graph)
    a = _load_element(g, args.a)
    image = _checked(lambda: CoreEndo(g).beta(a))
    report.say("shift image:")
    report.data.extend(image.text().rstrip("\n").split("\n"))


# the most words times levels core iexpand forms: a word at level L holds 2L
# edges, and on O_2 the words double at every level
EXPAND_LIMIT = 100_000


def _expansion_words(g: Graph, a: StarElement, level: int, cap: int) -> int:
    """The words a.i_expand(level) forms before merging, or cap when there
    are more: a term at level j with source v forms g.path_count(v, level - j)
    of them."""
    words = 0
    for (mu, _), _ in a.items():
        if words >= cap:
            break
        if len(mu) <= level:
            words += g.path_count(mu.src, level - len(mu), cap - words)
    return words


def cmd_core_iexpand(args, report: RunReport) -> None:
    _require_at_least(args, "level", 0)
    g = _load_graph(args.graph)
    a = _load_element(g, args.a)
    levels = args.level + 1
    cap = EXPAND_LIMIT // levels + 1
    words = _expansion_words(g, a, args.level, cap)
    if max(words, 1) * levels > EXPAND_LIMIT:
        raise CliError("--level %d plans %s%d words in %d levels, above the limit of %d"
                       " words times levels" % (args.level, "at least " if words == cap else "",
                                                words, levels, EXPAND_LIMIT))
    parts = _checked(a.i_expand, args.level)
    for i, part in enumerate(parts):
        report.say("component %d:" % i)
        report.data.extend(part.text().rstrip("\n").split("\n"))
    sec = CheckReport("expansion recombines")
    sec.check(sum(parts, StarElement.zero(g)).equal(a),
              lambda: "sum of components differs from the input")
    report.add(sec)


def cmd_core_norm(args, report: RunReport) -> None:
    g = _load_graph(args.graph)
    a = _load_element(g, args.a)
    res = _checked(op_norm, a)
    report.say("norm: %.12g" % res.value)
    report.say("error_bound: %.3e" % res.error_bound)


def _random_core(g: Graph, rng: SplitMix64, depth: int) -> StarElement:
    level = 1 + rng.below(depth)
    paths = g.paths(level)
    x = StarElement.zero(g)
    for _ in range(1 + rng.below(3)):
        mu = rng.choice(paths)
        nu = rng.choice([p for p in paths if p.src == mu.src])
        x = x + StarElement.word(g, rng.fraction(), mu, nu)
    return x


def _shift_verdicts(endo: CoreEndo, w: StarElement, x: StarElement):
    """x, beta(x) and the verdicts of the two checks on x alone:
    beta(x*) = beta(x)* and beta(x) = WxW*."""
    bx = endo.beta(x)
    return x, bx, endo.beta(x.adjoint()).equal(bx.adjoint()), bx.equal(w * x * w.adjoint())


def _check_shift_pair(sweep: CheckReport, endo: CoreEndo, verdicts, y, by) -> None:
    """Count the pair's three checks: multiplicativity, then x's two verdicts,
    so a failing verdict is reported once for every pair x is in."""
    x, bx, adjoint_ok, covariant = verdicts
    sweep.check(endo.beta(x * y).equal(bx * by),
                lambda: "multiplicativity fails for x=\n%sy=\n%s" % (x.text(), y.text()))
    sweep.check(adjoint_ok, lambda: "adjoint fails for x=\n%s" % x.text())
    sweep.check(covariant, lambda: "covariance fails for x=\n%s" % x.text())


def cmd_core_verify_beta(args, report: RunReport) -> None:
    _require_at_least(args, "depth", 1)
    _require_at_least(args, "trials", 0)
    g = _load_graph(args.graph)
    endo = _checked(CoreEndo, g)
    w = endo.build_W()
    rng = SplitMix64(args.seed)

    gauge = CheckReport("W is a covariance isometry")
    gauge.check((w.adjoint() * w).equal(unit(g)), lambda: "W*W differs from the unit")
    report.add(gauge)

    units = []
    for level in range(1, args.depth + 1):
        paths = g.paths(level)
        units.extend(matrix_unit(g, mu, nu)
                     for mu in paths for nu in paths if mu.src == nu.src)
    sweep = CheckReport("shift homomorphism sweep, %d exhaustive pairs, %d random"
                        % (len(units) ** 2, args.trials))
    exhaustive = [_shift_verdicts(endo, w, x) for x in units]
    for vx in exhaustive:
        for y, by, _, _ in exhaustive:
            _check_shift_pair(sweep, endo, vx, y, by)
    for _ in range(args.trials):
        x = _random_core(g, rng, args.depth)
        y = _random_core(g, rng, args.depth)
        _check_shift_pair(sweep, endo, _shift_verdicts(endo, w, x), y, endo.beta(y))
    report.add(sweep)


# -- exel -------------------------------------------------------------------------


def _random_depth_function(g: Graph, rng: SplitMix64, depth: int) -> DepthFunction:
    k = 1 + rng.below(depth)
    vals = {}
    for p in g.paths(k):
        if rng.below(2):
            vals[p] = rng.fraction()
    return DepthFunction(g, k, vals)


def cmd_exel_verify_transfer(args, report: RunReport) -> None:
    _require_at_least(args, "depth", 1)
    _require_at_least(args, "trials", 0)
    g = _load_graph(args.graph)
    if not g.path_space_admissible:
        raise CliError("graph must have no sinks and no singular vertices")
    rng = SplitMix64(args.seed)

    basic = CheckReport("unit and section identities")
    one = DepthFunction.constant(g, 1)
    basic.check(transfer_L(one).equal(one), lambda: "L(1) differs from 1")
    levels = [[DepthFunction.indicator(g, p) for p in g.paths(k)]
              for k in range(1, args.depth + 1)]
    for fs in levels:
        for f in fs:
            basic.check(transfer_L(alpha_shift(f)).equal(f),
                        lambda: "L(alpha(f)) differs from f at f=\n%s" % f.text())
    report.add(basic)

    sweep = CheckReport("transfer identity sweep, %d exhaustive pairs, %d random"
                        % (sum(len(fs) ** 2 for fs in levels), args.trials))
    for fs in levels:
        for a in fs:
            for b in fs:
                sweep.merge(transfer_identity_check(a, b))
    for _ in range(args.trials):
        sweep.merge(transfer_identity_check(_random_depth_function(g, rng, args.depth),
                                            _random_depth_function(g, rng, args.depth)))
    report.add(sweep)
    report.add(exel_relations_check(CoreEndo(g).build_W(), [f for fs in levels for f in fs]))


# -- module -----------------------------------------------------------------------


def _frame_system(args):
    if args.graph_file:
        return _checked(GraphFrameSystem, _load_graph(args.graph_file))
    if args.n is None or args.N is None:
        raise CliError("give a graph file, or both --n and --N")
    return _checked(lambda: UhfFrameSystem(uc.UhfSystem(args.n, args.N)))


def cmd_module_verify_frames(args, report: RunReport) -> None:
    system = _frame_system(args)
    report.add(canonical_frame(system))
    elements = [ModuleElement.basis_word(system, (i,)) for i in system.indices]
    elements += [ModuleElement.from_algebra(system, a) for a in system.basis(1)]
    for m in elements:
        report.add(reconstruct_check(m))
    report.add(gram_psd_check(system, elements))


def cmd_module_verify_u(args, report: RunReport) -> None:
    system = _frame_system(args)
    _, rep = _checked(build_U, system, args.depth)
    report.add(rep)
    for degree in range(1, min(args.depth, 2) + 1):
        report.add(u_isometry_report(system, degree))


def cmd_module_crosscheck(args, report: RunReport) -> None:
    _require_at_least(args, "level", 1)
    g = _load_graph(args.graph)
    if not g.path_space_admissible:
        raise CliError("graph must have no sinks and no singular vertices")
    paths = g.paths(args.level)
    sweep = CheckReport("two-route shift comparison, level %d, %d pairs"
                        % (args.level, len(paths) ** 2))
    for mu in paths:
        for nu in paths:
            sweep.merge(beta_crosscheck(g, mu, nu))
    report.add(sweep)


# -- uhf --------------------------------------------------------------------------


def cmd_uhf_demo(args, report: RunReport) -> None:
    _require_at_least(args, "depth", 0)
    sys_ = _checked(uc.UhfSystem, args.n, args.N)
    n, cap = args.n, args.N
    report.say("system: n=%d, N=%d" % (n, cap))

    proj = CheckReport("corner projection")
    p = sys_.p_tensor()
    proj.check((p * p).equal(p), lambda: "p is not idempotent")
    proj.check(p.trace() == ONE * cap,
               lambda: "p has trace %s, expected %d" % (p.trace().text(), cap))
    report.add(proj)

    _, family = uc.canonical_cuntz_family(sys_)
    report.say("isometry family: %d generators on one vertex" % len(family))

    a = uc.TensorElement.unit_entry(n, (1,) * args.depth, (min(2, n),) * args.depth)
    report.add(uc.pi_T_report(sys_, family, a))
    report.add(uc.prefix_rep_sweep(sys_, a, args.depth + 1))
    report.add(iso_generators_check(sys_))

    rsys, _, rrep = uc.rank_rescale(n, 1, p)
    report.add(rrep)
    report.say("rank data reproduces n=%d, N=%d" % (rsys.n, rsys.N))

    res = kt.paschke_sequence([[n * cap]], True)
    gr = _graph_k_theory(bouquet(n * cap), report)
    if gr is None:
        return
    agree = CheckReport("six-term corner against the bouquet model")
    agree.check(res.k0 == gr.k0 and res.k1 == gr.k1, lambda: "corner mismatch: %s/%s vs %s/%s"
                % (res.k0.text(), res.k1.text(), gr.k0.text(), gr.k1.text()))
    report.add(agree)
    report.say("K_0 = %s, K_1 = %s" % (res.k0.text(), res.k1.text()))


# -- dilation ---------------------------------------------------------------------


# the most checks dilation verify runs: --matrix 300 --box 1 --level 1 plans
# 543,910 of them (4-5 s), and each further level multiplies the transversal
# points by |det|
DILATION_LIMIT = 1_000_000


def _dilation_checks(det: int, d: int, box: int, level: int, cap: int) -> tuple[int, bool]:
    """The checks dilation verify runs without --sigma, and whether that
    count is exact: 4|det| + 3 at each point of the box, 1 + |det|^i at
    transversal level i, and one per box point at radius min(box, 4) in each
    of the 2|det|^2 rewrites.  The levels stop once the count passes cap."""
    checks = (2 * box + 1) ** d * (4 * det + 3) + 2 * det * det * (2 * min(box, 4) + 1) ** d
    if det == 1:
        return checks + 2 * level, True
    power = 1
    for _ in range(level):
        if checks > cap:
            return checks, False
        power *= det
        checks += power + 1
    return checks, True


def cmd_dilation_verify(args, report: RunReport) -> None:
    _require_at_least(args, "box", 0)
    _require_at_least(args, "level", 0)
    b = parse_int_matrix(args.matrix)
    # a matrix that is not square or is singular is refused by the system
    det = abs(kt.int_det(b)) if len(b) == len(b[0]) else 0
    if det:
        checks, exact = _dilation_checks(det, len(b), args.box, args.level, DILATION_LIMIT)
        if args.sigma is not None:
            checks += 1 + len(parse_points(args.sigma))
        if checks > DILATION_LIMIT:
            raise CliError("|det| = %d, --box %d and --level %d plan %s%d checks, above the"
                           " limit of %d checks" % (det, args.box, args.level,
                                                    "" if exact else "at least ", checks,
                                                    DILATION_LIMIT))
    system = _checked(dl.LatticeSystem, b)
    report.say("dimension: %d, |det| = %d" % (system.d, system.det_abs))
    report.say("transversal: %s" % "; ".join(",".join(str(x) for x in p)
                                             for p in system.Sigma))
    if args.sigma is not None:
        pts = parse_points(args.sigma)
        if any(len(p) != system.d for p in pts):
            raise CliError("sigma points must have dimension %d" % system.d)
        rep = dl.transversal_check(system, pts, power=1)
        rep.name = "supplied transversal"
        report.add(rep)
        if rep.passed:
            system = dl.LatticeSystem(b, sigma=pts)

    report.add(dl.lattice_rep_check(system, args.box))
    for i in range(1, args.level + 1):
        pts = dl.sigma_i(system, i, verify=False)
        report.add(dl.transversal_check(system, pts, power=i))
    rewrites = CheckReport("one-step rewrites over the transversal")
    for m in system.Sigma:
        for nn in system.Sigma:
            for power in (0, 1):
                _, rep = dl.dilation_beta(system, (m, power, nn),
                                          radius=min(args.box, 4))
                rewrites.merge(rep)
    report.add(rewrites)


# -- ktheory ----------------------------------------------------------------------


def _graph_k_theory(g: Graph, report: RunReport):
    """graph_k_theory(g) with its stage checks added as a section; when the
    stages do not settle, a failed "stabilization" section and None."""
    try:
        res = _checked(kt.graph_k_theory, g)
    except kt.StabilizationError as exc:
        failed = CheckReport("stabilization")
        failed.check(False, lambda: str(exc))
        report.add(failed)
        return None
    report.add(res.report)
    return res


def cmd_ktheory_graph(args, report: RunReport) -> None:
    g = _load_graph(args.file)
    res = _graph_k_theory(g, report)
    if res is None:
        return
    verts, a = kt.vertex_matrix(g)
    n = len(verts)
    classic = [[a[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    k0c, kerc = kt.coker_ker(classic)
    agree = CheckReport("agreement with the transposed-matrix model")
    agree.check((k0c, kerc) == (res.k0, res.k1.free_rank),
                lambda: "stagewise %s/%s vs classic %s/Z^%d"
                % (res.k0.text(), res.k1.text(), k0c.text(), kerc))
    report.add(agree)
    report.say("K_0 = %s" % res.k0.text())
    report.say("K_1 = %s" % res.k1.text())


def cmd_ktheory_paschke(args, report: RunReport) -> None:
    beta_star = parse_int_matrix(args.matrix)
    res = _checked(kt.paschke_sequence, beta_star, args.af)
    report.data.extend(res.diagram.split("\n"))
    if res.k0 is not None:
        report.say("K_0 = %s" % res.k0.text())
        report.say("K_1 = %s" % res.k1.text())
    m = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(beta_star)]
    k0, ker_rank = (res.k0, res.k1.free_rank) if res.k0 is not None else kt.coker_ker(m)
    det = kt.int_det(m)
    agree = CheckReport("Smith form against the determinant of b* - 1")
    # |K_0| and the kernel rank; a finite K_0 with det = 0 is a mismatch too
    agree.check((k0.order(), ker_rank) == ((abs(det), 0) if det else (None, k0.free_rank)),
                lambda: "det = %d but coker = %s, ker = Z^%d" % (det, k0.text(), ker_rank))
    report.add(agree)


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument("--seed", type=int, default=0)

    top = argparse.ArgumentParser(prog="corealg")
    sub = top.add_subparsers(dest="group", required=True)

    def leaf(group, name, func):
        p = group.add_parser(name, parents=[common])
        p.set_defaults(func=func)
        return p

    g = sub.add_parser("graph").add_subparsers(dest="action", required=True)
    p = leaf(g, "info", cmd_graph_info)
    p.add_argument("file")

    c = sub.add_parser("core").add_subparsers(dest="action", required=True)
    p = leaf(c, "mul", cmd_core_mul)
    p.add_argument("graph")
    p.add_argument("a")
    p.add_argument("b")
    p = leaf(c, "beta", cmd_core_beta)
    p.add_argument("graph")
    p.add_argument("a")
    p = leaf(c, "iexpand", cmd_core_iexpand)
    p.add_argument("graph")
    p.add_argument("a")
    p.add_argument("--level", type=int, default=1)
    p = leaf(c, "norm", cmd_core_norm)
    p.add_argument("graph")
    p.add_argument("a")
    p = leaf(c, "verify-beta", cmd_core_verify_beta)
    p.add_argument("graph")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--trials", type=int, default=25)

    e = sub.add_parser("exel").add_subparsers(dest="action", required=True)
    p = leaf(e, "verify-transfer", cmd_exel_verify_transfer)
    p.add_argument("graph")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)

    m = sub.add_parser("module").add_subparsers(dest="action", required=True)
    p = leaf(m, "verify-frames", cmd_module_verify_frames)
    p.add_argument("graph_file", nargs="?")
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p = leaf(m, "verify-u", cmd_module_verify_u)
    p.add_argument("graph_file", nargs="?")
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--depth", type=int, default=2)
    p = leaf(m, "crosscheck", cmd_module_crosscheck)
    p.add_argument("graph")
    p.add_argument("--level", type=int, default=1)

    u = sub.add_parser("uhf").add_subparsers(dest="action", required=True)
    p = leaf(u, "demo", cmd_uhf_demo)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)

    d = sub.add_parser("dilation").add_subparsers(dest="action", required=True)
    p = leaf(d, "verify", cmd_dilation_verify)
    p.add_argument("--matrix", required=True)
    p.add_argument("--box", type=int, default=4)
    p.add_argument("--sigma")
    p.add_argument("--level", type=int, default=2)

    k = sub.add_parser("ktheory").add_subparsers(dest="action", required=True)
    p = leaf(k, "graph", cmd_ktheory_graph)
    p.add_argument("file")
    p = leaf(k, "paschke", cmd_ktheory_paschke)
    p.add_argument("--matrix", required=True)
    p.add_argument("--af", action="store_true")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(argv if argv is not None else sys.argv[1:])
    report = RunReport(command, args.seed)
    try:
        args.func(args, report)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RuntimeError as exc:
        sys.stderr.write("verification raised: %s\n" % exc)
        return 1
    sys.stdout.write(report.json_text() if args.json else report.text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
