"""Acceptance run: every release gate in one module, one verdict line each.

Each criterion prints `criterion N [label]: PASS/FAIL (t)` on the real
stdout so the line survives pytest capture.  All comparisons are exact:
structural equality of words, sets, maps and Gaussian rationals.
"""

import time
from contextlib import contextmanager

import pytest

from cantorenv.action import ZPartialAction, axioms_check, generated_family, germ_index
from cantorenv.cells import adapted_depth, cell_partition
from cantorenv.envelope import (
    GermPair,
    etale_probe,
    hausdorff_decide,
    nonseparable_pair,
    related,
)
from cantorenv.cantor import Point, common_prefix_length
from cantorenv.filtration import (
    bratteli_build,
    default_schedule,
    export,
    inclusion_witness,
)
from cantorenv.prefix_map import ODOMETER, PrefixMap
from cantorenv.sampling import Sampler
from cantorenv.verify import equivariance_sign, isomorphism_suite

from germ_windows import windows_failures
from oracles import brute_partition

FLIP = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
ODO = ZPartialAction(ODOMETER)


_CAP = None


@pytest.fixture(autouse=True)
def _route_past_capture(capsys):
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        _line(num, label, "FAIL", time.time() - t0)
        raise
    dt = time.time() - t0
    if budget is not None and dt > budget:
        _line(num, label, f"FAIL (over {budget}s budget)", dt)
        raise AssertionError(f"criterion {num} took {dt:.2f}s > {budget}s")
    _line(num, label, "PASS", dt)


def _line(num, label, verdict, dt):
    text = f"criterion {num} [{label}]: {verdict} ({dt:.2f}s)"
    if _CAP is not None:
        with _CAP.disabled():
            print(text, flush=True)
    else:
        print(text, flush=True)


def test_criterion_1_axioms():
    with criterion(1, "axioms on random maps and odometer stages", budget=10):
        sampler = Sampler(seed=101)
        for _ in range(50):
            a = ZPartialAction(sampler.prefix_map())
            rep = axioms_check(generated_family(a, 4))
            assert rep.ok, rep.violations[:2]
        for k in range(4):
            rep = axioms_check(generated_family(ODO.stage(k), 4))
            assert rep.ok, rep.violations[:2]


def test_criterion_2_hausdorff_decision():
    with criterion(2, "clopen certificates and the odometer witness"):
        sampler = Sampler(seed=202)
        actions = [FLIP] + [ZPartialAction(sampler.prefix_map())
                            for _ in range(50)]
        for a in actions:
            cert = hausdorff_decide(a, bound=6)
            assert cert.verdict == "clopen"
            dd = dict(cert.domains)
            assert set(dd) == set(range(-6, 7))
            for t, xt in dd.items():
                assert xt == a.domain(t)

        cert = hausdorff_decide(ODO, bound=4, depth=10)
        assert cert.verdict == "non-clopen-witness"
        assert cert.t == -1 and cert.point == Point.parse("(1)")
        assert cert.depth == 10

        pair = nonseparable_pair(ODO, -1, depth=8)
        for k in range(9):
            assert not related(ODO.stage(k), pair.first, pair.second)
        for j, (xj, yj) in enumerate(pair.approach):
            assert related(ODO.stage(8), GermPair(pair.first.index, xj),
                           GermPair(pair.second.index, yj))
            assert common_prefix_length(xj, pair.first.point, j) == j
            assert common_prefix_length(yj, pair.second.point, j) == j


def test_criterion_3_etale_and_groupoid():
    with criterion(3, "etale opens and groupoid laws"):
        for a in (FLIP, ODO.stage(1)):
            for t in range(-3, 4):
                for s in range(-3, 4):
                    base = a.domain(germ_index(t, s))
                    if base.is_empty():
                        continue
                    rep = etale_probe(a, t, s, base)
                    assert rep.ok, (t, s, rep.violations[:1])
        # the groupoid laws on every ordered cell pair of each window
        checked, bad = windows_failures()
        assert not bad, bad[:2]
        assert checked >= 50_000


def test_criterion_4_filtration_witnesses():
    with criterion(4, "inclusion witnesses and stage monotonicity"):
        sampler = Sampler(seed=404)
        for _ in range(100):
            r, x, s, y, top = sampler.enumeration_instance()
            K = inclusion_witness(ODO, r, x, s, y)
            assert K <= top + 1
            assert related(ODO.stage(K), GermPair(r, x), GermPair(s, y))
        # bratteli_build's split guard refuses a fine stage that splits a
        # refined copy of a coarse class
        for k in range(4):
            for n in range(4):
                d1 = adapted_depth(ODO.stage(k), n)
                d2 = max(d1, adapted_depth(ODO.stage(k + 1), n + 1))
                bratteli_build(ODO, ((k, n, d1), (k + 1, n + 1, d2)))


def test_criterion_5_partitions_match_brute_force():
    with criterion(5, "cell partitions against brute force"):
        part = cell_partition(FLIP, 1, 1)
        assert sum(part.sizes) == 6
        assert sorted(part.sizes) == [1, 1, 2, 2]
        assert part.classes == brute_partition([("0", "1")], 1, 1)
        for k in range(4):
            ak = ODO.stage(k)
            rules = [ODOMETER.rule(i) for i in range(k + 1)]
            for n in range(4):
                d = adapted_depth(ak, n)
                assert cell_partition(ak, n, d).classes == brute_partition(
                    rules, n, d
                )


def test_criterion_6_bratteli_diagram():
    with criterion(6, "leveled diagram build and deterministic export"):
        sched = default_schedule(ODO, 4)
        diag = bratteli_build(ODO, sched)
        # the builder enforces the counting identity; re-check it here
        for prev, cur in zip(diag.levels, diag.levels[1:]):
            for j, (_, size, fresh) in enumerate(cur.vertices):
                inflow = sum(mult * prev.vertices[i][1]
                             for (m, i, jj, mult) in diag.edges
                             if m == prev.m and jj == j)
                assert size == inflow + fresh
        again = bratteli_build(ODO, sched)
        assert export(diag, "json") == export(again, "json")
        assert export(diag, "dot") == export(again, "dot")
        assert export(diag, "json").encode() == export(again, "json").encode()


def test_criterion_7_reindexing_isomorphism():
    with criterion(7, "block-to-kernel homomorphism trials", budget=60):
        total = 0
        for a, lv in ((FLIP, None), (ODO, 1), (ODO, 2)):
            rep = isomorphism_suite(a, trials=250, seed=707, max_index=3,
                                    depth=6, level=lv)
            assert rep.ok, rep.failures[:3]
            total += rep.trials
        assert total >= 500


def test_criterion_8_single_shift_sign():
    with criterion(8, "one shift sign across systems"):
        signs = []
        for a, lv in ((FLIP, None), (ODO, 2)):
            eps, rep = equivariance_sign(a, trials=100, seed=808, level=lv)
            assert rep.ok, rep.failures[:3]
            signs.append(eps)
        assert len(set(signs)) == 1
        assert signs[0] == -1
