"""Randomized exact identity suites for the block/kernel correspondence.

Every check is a structural equality of canonical values -- no tolerances.
A fixed seed fixes the sampled elements, so failures replay exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .action import ZPartialAction
from .algebra import (
    ZERO_KERNEL,
    adjoint,
    col_part,
    convolve,
    corner,
    from_kernel,
    kernel_adjoint,
    kernel_multiply,
    norm_squared,
    row_part,
    shift_blocks,
    shift_kernel,
    to_kernel,
)
from .errors import EngineError
from .sampling import Sampler


@dataclass(frozen=True)
class VerifyReport:
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
    if level is not None:
        a = a.stage(level)
    sampler = Sampler(seed)
    failures: list[str] = []
    checked = 0

    def expect(cond: bool, msg: Callable[[], str]) -> None:
        """Count one check; on failure keep msg(), for the first 10 only.

        The check is never skipped.  Only the message is deferred: `msg` is
        called at once, while the loop variables it names are current.
        """
        nonlocal checked
        checked += 1
        if not cond and len(failures) < 10:
            failures.append(msg())

    for _ in range(trials):
        f = sampler.groupoid_function(a, max_index, depth)
        g = sampler.groupoid_function(a, max_index, depth)
        h = sampler.groupoid_function(a, max_index, depth)
        kf, kg = to_kernel(f), to_kernel(g)
        fg = convolve(f, g, a)

        expect(
            to_kernel(fg) == kernel_multiply(kf, kg, a),
            lambda: f"products disagree for f={f} and g={g}",
        )
        expect(
            to_kernel(adjoint(f, a)) == kernel_adjoint(kf, a),
            lambda: f"adjoints disagree for f={f}",
        )
        expect(from_kernel(kf) == f, lambda: f"reindexing does not invert on {f}")
        expect(
            adjoint(adjoint(f, a), a) == f,
            lambda: f"double adjoint moved {f}",
        )
        expect(
            adjoint(fg, a)
            == convolve(adjoint(g, a), adjoint(f, a), a),
            lambda: f"(fg)* != g*f* for f={f}, g={g}",
        )
        expect(
            convolve(fg, h, a) == convolve(f, convolve(g, h, a), a),
            lambda: f"block product not associative on f={f}, g={g}, h={h}",
        )
        kh = to_kernel(h)
        expect(
            kernel_multiply(kernel_multiply(kf, kg, a), kh, a)
            == kernel_multiply(kf, kernel_multiply(kg, kh, a), a),
            lambda: "kernel product not associative",
        )

        total = ZERO_KERNEL
        for r, s in kf.indices:
            total = total + corner(kf, r, s)
            expect(
                corner(kf, r, s) == to_kernel(f.restrict_block(-r, -s)),
                lambda: f"corner ({r},{s}) does not match the block restriction",
            )
            expect(
                corner(kf, r, s) == col_part(row_part(kf, r), s),
                lambda: f"row/column compressions disagree at ({r},{s})",
            )
        expect(total == kf, lambda: f"corners do not sum back to {kf}")

        for t in (-1, 0, 1):
            c1, c2 = corner(kf, t, t), corner(kg, t, t)
            p12 = kernel_multiply(c1, c2, a)
            p21 = kernel_multiply(c2, c1, a)
            expect(p12 == p21, lambda: f"diagonal corners at {t} do not commute")
            expect(
                p12.indices in ((), ((t, t),)),
                lambda: f"diagonal corner product left the diagonal at {t}",
            )
            expect(
                p12.entry(t, t) == c1.entry(t, t) * c2.entry(t, t),
                lambda: f"diagonal corner product at {t} is not pointwise",
            )

        for t in (-2, 1):
            expect(
                shift_kernel(kernel_multiply(kf, kg, a), t)
                == kernel_multiply(
                    shift_kernel(kf, t), shift_kernel(kg, t), a
                ),
                lambda: f"slot shift by {t} is not multiplicative",
            )
            expect(
                shift_kernel(kernel_adjoint(kf, a), t)
                == kernel_adjoint(shift_kernel(kf, t), a),
                lambda: f"slot shift by {t} does not respect the adjoint",
            )
            expect(
                norm_squared(shift_kernel(kf, t)) == norm_squared(kf),
                lambda: f"slot shift by {t} changed the norm",
            )
    return VerifyReport(trials, checked, tuple(failures))


def equivariance_sign(
    a: ZPartialAction,
    trials: int = 50,
    seed: int = 0,
    max_index: int = 3,
    depth: int = 6,
    level: int | None = None,
    max_t: int = 3,
) -> tuple[int, VerifyReport]:
    """Determine the sign e with psi(alpha_t(f)) = beta_{e t}(psi(f)).

    The sign is fixed by the first sampled element that distinguishes the
    two candidates, then enforced across every sample and every |t| bound.
    """
    if level is not None:
        a = a.stage(level)
    sampler = Sampler(seed)
    samples = [sampler.groupoid_function(a, max_index, depth) for _ in range(trials)]
    eps = None
    for f in samples:
        for t in range(1, max_t + 1):
            target = to_kernel(shift_blocks(f, t))
            plus = shift_kernel(to_kernel(f), t) == target
            minus = shift_kernel(to_kernel(f), -t) == target
            if plus != minus:
                eps = 1 if plus else -1
                break
        if eps is not None:
            break
    if eps is None:
        raise EngineError("no sample distinguishes the two intertwining signs")

    failures: list[str] = []
    checked = 0
    for f in samples:
        for t in range(-max_t, max_t + 1):
            checked += 1
            if to_kernel(shift_blocks(f, t)) != shift_kernel(to_kernel(f), eps * t):
                if len(failures) < 10:
                    failures.append(f"sign {eps} fails at t={t} on {f}")
    return eps, VerifyReport(trials, checked, tuple(failures), epsilon=eps)
