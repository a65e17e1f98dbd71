"""Warp-uniformity (thread-dependence taint) analysis.

Section V.A argues the detector's inserted compare "is a point of
control-flow divergence, [but] because all threads in a same warp make
the same control-flow decision if there is no fault, this does not
introduce a large performance or scheduling overhead".  Reasoning about
that requires knowing which expressions are *warp-uniform* — dependent
only on kernel parameters and constants — versus *thread-varying* —
tainted (transitively) by ``threadIdx``/``blockIdx``.

The analysis is a forward taint fixpoint over variable names:

* ``threadIdx.*`` seeds the taint (``blockIdx`` is warp-uniform; pass
  ``seeds=GRID_SEEDS`` to reason about grid-wide variance instead);
* a definition is tainted if its RHS reads any tainted name or any
  memory indexed by a tainted expression (data loaded from
  thread-dependent addresses varies per thread);
* an assignment under a tainted branch condition is control-dependent
  tainted (implicit flows).

Classifying a branch: `branch_divergence(kernel)` labels every ``If``
as ``"uniform"`` or ``"divergent"``.  GPU compilers run exactly this
analysis to place reconvergence points and to hoist uniform work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.errors import KIRValidationError
from repro.kir.astnodes import (
    Assign,
    Decl,
    Expr,
    For,
    If,
    Kernel,
    Load,
    SharedLoad,
    SpecialReg,
    Stmt,
    Var,
    While,
    walk_exprs,
)

#: Registers that vary between the threads of one warp (a warp lives
#: inside one block, so blockIdx is warp-uniform).
THREAD_SEEDS = ("threadIdx.x", "threadIdx.y")

#: Registers that vary across the whole grid (per-thread *or* per-block
#: state; use for reasoning about grid-wide value variance).
GRID_SEEDS = THREAD_SEEDS + ("blockIdx.x", "blockIdx.y")


def _expr_tainted(e: Expr, tainted: Set[str], seeds: Tuple[str, ...]) -> bool:
    for node in walk_exprs(e):
        if isinstance(node, SpecialReg) and node.name in seeds:
            return True
        if isinstance(node, Var) and node.name in tainted:
            return True
        if isinstance(node, (Load, SharedLoad)):
            # data reached through a thread-dependent address varies;
            # the index subtree is already covered by this walk, but a
            # load through a *tainted pointer* needs the base check too
            continue
    return False


def thread_varying_names(
    kernel: Kernel, seeds: Tuple[str, ...] = THREAD_SEEDS
) -> Set[str]:
    """Names of variables whose values may differ between threads."""
    if not kernel.validated:
        raise KIRValidationError("validate the kernel before analysis")
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False

        def visit(body: List[Stmt], ctrl_tainted: bool) -> None:
            nonlocal changed
            for stmt in body:
                if isinstance(stmt, (Decl, Assign)):
                    name = stmt.name
                    rhs = stmt.init if isinstance(stmt, Decl) else stmt.value
                    if name not in tainted and (
                        ctrl_tainted or _expr_tainted(rhs, tainted, seeds)
                    ):
                        tainted.add(name)
                        changed = True
                elif isinstance(stmt, For):
                    inner_ctrl = ctrl_tainted or _expr_tainted(
                        stmt.cond, tainted, seeds
                    )
                    if stmt.init is not None:
                        visit([stmt.init], ctrl_tainted)
                    if stmt.update is not None:
                        visit([stmt.update], inner_ctrl)
                    visit(stmt.body, inner_ctrl)
                elif isinstance(stmt, While):
                    inner_ctrl = ctrl_tainted or _expr_tainted(
                        stmt.cond, tainted, seeds
                    )
                    visit(stmt.body, inner_ctrl)
                elif isinstance(stmt, If):
                    inner_ctrl = ctrl_tainted or _expr_tainted(
                        stmt.cond, tainted, seeds
                    )
                    visit(stmt.then, inner_ctrl)
                    visit(stmt.els, inner_ctrl)

        visit(kernel.body, False)
    return tainted


def is_warp_uniform(
    kernel: Kernel, expr: Expr, seeds: Tuple[str, ...] = THREAD_SEEDS
) -> bool:
    """True when every thread of a warp evaluates ``expr`` identically."""
    return not _expr_tainted(expr, thread_varying_names(kernel, seeds), seeds)


@dataclass
class DivergenceReport:
    """Per-branch divergence classification of a kernel."""

    #: (source rendering of the condition, "uniform" | "divergent")
    branches: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def divergent_count(self) -> int:
        return sum(1 for _c, kind in self.branches if kind == "divergent")

    @property
    def uniform_count(self) -> int:
        return len(self.branches) - self.divergent_count


def branch_divergence(kernel: Kernel) -> DivergenceReport:
    """Classify every If/loop condition as warp-uniform or divergent."""
    from repro.kir.printer import expr_to_source

    tainted = thread_varying_names(kernel)
    report = DivergenceReport()

    def visit(body: List[Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                kind = (
                    "divergent"
                    if _expr_tainted(stmt.cond, tainted, THREAD_SEEDS)
                    else "uniform"
                )
                report.branches.append((expr_to_source(stmt.cond), kind))
                visit(stmt.then)
                visit(stmt.els)
            elif isinstance(stmt, For):
                kind = (
                    "divergent"
                    if _expr_tainted(stmt.cond, tainted, THREAD_SEEDS)
                    else "uniform"
                )
                report.branches.append((expr_to_source(stmt.cond), kind))
                visit(stmt.body)
            elif isinstance(stmt, While):
                kind = (
                    "divergent"
                    if _expr_tainted(stmt.cond, tainted, THREAD_SEEDS)
                    else "uniform"
                )
                report.branches.append((expr_to_source(stmt.cond), kind))
                visit(stmt.body)

    visit(kernel.body)
    return report
