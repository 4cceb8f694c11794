"""Randomized exact identity suites for the block/kernel correspondence.

Every check is a structural equality of canonical values -- no tolerances.
A fixed seed fixes the sampled elements, so failures replay exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .action import ZPartialAction
from .algebra import (
    ZERO_KERNEL,
    adjoint,
    col_part,
    convolve,
    from_kernel,
    kernel_adjoint,
    kernel_multiply,
    norm_squared,
    row_part,
    to_kernel,
)
from .errors import EngineError, SupportViolation, require_int
from .sampling import Sampler
from .value import Value

# equivariance_sign checks every shift t with |t| <= SHIFT_BOUND
SHIFT_BOUND = 3


class VerifyReport(Value):
    trials: int
    checked: int
    failures: tuple[str, ...]
    epsilon: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "ok": self.ok,
            "trials": self.trials,
            "checked": self.checked,
            "failures": list(self.failures),
        }
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        return out


class _Tally:
    """Counts checks and keeps the first 10 failure messages.

    A check is never skipped.  Its condition runs inside the check, so a
    SupportViolation on the way fails that check and is appended to its
    message; `msg` runs at once, while the loop variables it names are current.
    """

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def __call__(self, cond: Callable[[], bool], msg: Callable[[], str]) -> None:
        self.checked += 1
        try:
            ok, why = cond(), ""
        except SupportViolation as exc:
            ok, why = False, f": {exc}"
        if not ok and len(self.failures) < 10:
            self.failures.append(msg() + why)


def _require_sizes(trials, max_index) -> None:
    """A suite samples at least one trial, on slots |t| <= max_index >= 0;
    with no trial it would report ok on nothing."""
    require_int(trials, 1, "a trial count")
    require_int(max_index, 0, "a slot bound")


def isomorphism_suite(
    a: ZPartialAction,
    trials: int = 100,
    seed: int = 0,
    max_index: int = 3,
    depth: int = 6,
    level: int | None = None,
) -> VerifyReport:
    """Exercise the reindexing on random elements: homomorphism, involution,
    inversion, corners, shifts and the counting norm, all exactly.
    """
    _require_sizes(trials, max_index)
    if level is not None:
        a = a.stage(level)
    sampler = Sampler(seed)
    expect = _Tally()
    for _ in range(trials):
        f = sampler.groupoid_function(a, max_index, depth)
        g = sampler.groupoid_function(a, max_index, depth)
        h = sampler.groupoid_function(a, max_index, depth)
        kf, kg, kh = to_kernel(f), to_kernel(g), to_kernel(h)
        fg = convolve(f, g, a)
        # each product that several checks use is built once per trial, by
        # the first check that asks; a raise is not cached, so every later
        # check that asks recomputes it and fails on its own
        kfg = cache(lambda: kernel_multiply(kf, kg, a))
        fa = cache(lambda: adjoint(f, a))
        kfa = cache(lambda: kernel_adjoint(kf, a))

        expect(
            lambda: to_kernel(fg) == kfg(),
            lambda: f"products disagree for f={f} and g={g}",
        )
        expect(
            lambda: to_kernel(fa()) == kfa(),
            lambda: f"adjoints disagree for f={f}",
        )
        expect(
            lambda: from_kernel(kf) == f,
            lambda: f"reindexing does not invert on {f}",
        )
        expect(
            lambda: adjoint(fa(), a) == f,
            lambda: f"double adjoint moved {f}",
        )
        expect(
            lambda: adjoint(fg, a) == convolve(adjoint(g, a), fa(), a),
            lambda: f"(fg)* != g*f* for f={f}, g={g}",
        )
        expect(
            lambda: convolve(fg, h, a) == convolve(f, convolve(g, h, a), a),
            lambda: f"block product not associative on f={f}, g={g}, h={h}",
        )
        expect(
            lambda: kernel_multiply(kfg(), kh, a)
            == kernel_multiply(kf, kernel_multiply(kg, kh, a), a),
            lambda: "kernel product not associative",
        )

        total = ZERO_KERNEL
        for r, s in kf.indices:
            total = total + kf.corner(r, s)
            expect(
                lambda: kf.corner(r, s) == to_kernel(f.corner(-r, -s)),
                lambda: f"corner ({r},{s}) does not match the block restriction",
            )
            expect(
                lambda: kf.corner(r, s) == col_part(row_part(kf, r), s),
                lambda: f"row/column compressions disagree at ({r},{s})",
            )
        expect(lambda: total == kf, lambda: f"corners do not sum back to {kf}")

        for t in (-1, 0, 1):
            c1, c2 = kf.corner(t, t), kg.corner(t, t)
            p12 = cache(lambda: kernel_multiply(c1, c2, a))
            expect(
                lambda: p12() == kernel_multiply(c2, c1, a),
                lambda: f"diagonal corners at {t} do not commute",
            )
            expect(
                lambda: p12().indices in ((), ((t, t),)),
                lambda: f"diagonal corner product left the diagonal at {t}",
            )
            expect(
                lambda: p12().at(t, t) == c1.at(t, t) * c2.at(t, t),
                lambda: f"diagonal corner product at {t} is not pointwise",
            )

        for t in (-2, 1):
            expect(
                lambda: kfg().shift(t)
                == kernel_multiply(kf.shift(t), kg.shift(t), a),
                lambda: f"slot shift by {t} is not multiplicative",
            )
            expect(
                lambda: kfa().shift(t)
                == kernel_adjoint(kf.shift(t), a),
                lambda: f"slot shift by {t} does not respect the adjoint",
            )
            expect(
                lambda: norm_squared(kf.shift(t)) == norm_squared(kf),
                lambda: f"slot shift by {t} changed the norm",
            )
    return VerifyReport(trials, expect.checked, tuple(expect.failures))


def equivariance_sign(
    a: ZPartialAction,
    trials: int = 50,
    seed: int = 0,
    max_index: int = 3,
    depth: int = 6,
    level: int | None = None,
) -> tuple[int, VerifyReport]:
    """Determine the sign e with psi(alpha_t(f)) = beta_{e t}(psi(f)).

    The sign is fixed by the first sampled element that distinguishes the
    two candidates, then enforced across every sample and every |t| bound.
    """
    _require_sizes(trials, max_index)
    if level is not None:
        a = a.stage(level)
    sampler = Sampler(seed)
    samples = [sampler.groupoid_function(a, max_index, depth) for _ in range(trials)]
    eps = None
    for f in samples:
        for t in range(1, SHIFT_BOUND + 1):
            target = to_kernel(f.shift(t))
            plus, minus = (to_kernel(f).shift(u) == target for u in (t, -t))
            if plus != minus:
                eps = 1 if plus else -1
                break
        if eps is not None:
            break
    if eps is None:
        raise EngineError("no sample distinguishes the two intertwining signs")

    expect = _Tally()
    for f in samples:
        for t in range(-SHIFT_BOUND, SHIFT_BOUND + 1):
            expect(
                lambda: to_kernel(f.shift(t)) == to_kernel(f).shift(eps * t),
                lambda: f"sign {eps} fails at t={t} on {f}",
            )
    return eps, VerifyReport(trials, expect.checked, tuple(expect.failures), eps)
