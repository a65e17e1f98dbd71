"""The FI instrumentation pass and runtime library (Figure 12).

``instrument_for_fi`` clones a kernel and plants a
``__hauberk_fi(site, "name")`` call after every virtual-variable
definition (and at kernel entry for each parameter).  The site ids
embedded as constants are the *original* kernel's numbering, so fault
targets remain comparable across baseline / FT / FI&FT builds even
though re-validation renumbers statement sites.

Loop-header definitions get hooks at the loop-body boundary:

* the iterator *init* site fires at the top of every iteration (its
  occurrence n observes the iterator at the start of iteration n);
* the *update* site fires at the bottom of the body, corrupting the
  iterator between iterations — the paper's "loop iterator corrupted
  to a large negative number" failure case (Section IX.B).

The bound :class:`FaultInjectionLibrary` mutates the one targeted
variable of the one targeted thread at the one targeted occurrence —
one fault per run, as in Section VIII.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bits import flip_float_bits, flip_int_bits
from repro.errors import InjectionError
from repro.exec.cache import ephemeral_cache
from repro.gpu.faults import inject_word_faults
from repro.kir.analysis.dataflow import SiteInfo, collect_sites
from repro.kir.astnodes import (
    Assign,
    CallStmt,
    Const,
    Decl,
    For,
    If,
    Kernel,
    Stmt,
    While,
)
from repro.kir.interp.evalcore import RETIRE, RETIRE_CALL, ExecContext, InstrumentationLibrary
from repro.kir.validate import validate_kernel
from repro.swifi.faultmodel import ActivationRecord, FaultSpec, InjectionState

FI_FUNC = "__hauberk_fi"

#: Attribute on a validated kernel caching its FI site table: every
#: full-path trial builds a library, and the table depends on the
#: kernel alone.
SITES_CACHE_ATTR = "_hauberk_fi_sites"


def site_table(kernel: Kernel) -> Dict[int, SiteInfo]:
    """Site id -> :class:`SiteInfo` of a validated kernel, built once."""
    cache = ephemeral_cache(kernel, SITES_CACHE_ATTR)
    table = cache.get("sites")
    if table is None:
        table = cache["sites"] = {s.site: s for s in collect_sites(kernel)}
    return table


def _hook(site: int, name: str) -> CallStmt:
    return CallStmt(func=FI_FUNC, args=[Const(site), Const(name)])


def _instrument_block(body: List[Stmt]) -> List[Stmt]:
    out: List[Stmt] = []
    for stmt in body:
        if isinstance(stmt, For):
            new_body = _instrument_block(stmt.body)
            if stmt.init is not None:
                new_body.insert(0, _hook(stmt.init.site, stmt.init.name))
            if stmt.update is not None:
                new_body.append(_hook(stmt.update.site, stmt.update.name))
            stmt.body = new_body
            out.append(stmt)
        elif isinstance(stmt, While):
            stmt.body = _instrument_block(stmt.body)
            out.append(stmt)
        elif isinstance(stmt, If):
            stmt.then = _instrument_block(stmt.then)
            stmt.els = _instrument_block(stmt.els)
            out.append(stmt)
        elif isinstance(stmt, (Decl, Assign)):
            out.append(stmt)
            out.append(_hook(stmt.site, stmt.name))
        else:
            out.append(stmt)
    return out


def instrument_for_fi(kernel: Kernel) -> Kernel:
    """Clone ``kernel`` with FI hooks after every definition site.

    The input must be validated; the clone is re-validated before
    return (renumbering its statement sites, but the hook arguments
    keep the original numbering used by :class:`FaultSpec`).
    """
    if not kernel.validated:
        raise InjectionError("validate the kernel before FI instrumentation")
    clone = kernel.clone()
    body = _instrument_block(clone.body)
    param_hooks = [_hook(p.site, p.name) for p in clone.params]
    clone.body = param_hooks + body
    validate_kernel(clone)
    return clone


class MemoryFaultInjector:
    """Undoable device-memory corruption (the memory column of Section VII).

    Wraps :func:`~repro.gpu.faults.inject_word_faults`: each
    :meth:`inject` XORs masks into device words as one vectorized
    operation and journals the prior bit patterns, and :meth:`undo`
    restores every corrupted word in reverse injection order — so a
    harness can corrupt, launch, measure, and hand back pristine golden
    state without a full memory restore.  Because both directions act
    on raw bit patterns, corrupting and undoing a NaN-holding word
    round-trips its payload exactly.
    """

    def __init__(self, memory):
        self.memory = memory
        self._journal: List[Tuple[np.ndarray, np.ndarray]] = []

    def inject(self, addrs: Sequence[int], masks: Sequence[int]) -> np.ndarray:
        """Corrupt ``addrs`` with ``masks``; returns the new bit patterns."""
        old_bits, new_bits = inject_word_faults(self.memory, addrs, masks)
        if old_bits.size:
            addr_arr = np.asarray(addrs, dtype=np.int64).reshape(-1)
            self._journal.append((addr_arr, old_bits))
        return new_bits

    def inject_word(self, addr: int, mask: int) -> int:
        """Single-word convenience form; returns the new bit pattern."""
        return int(self.inject([addr], [mask])[0])

    @property
    def injected_words(self) -> int:
        return sum(addrs.size for addrs, _old in self._journal)

    def undo(self) -> None:
        """Restore every journaled word, most recent injection first."""
        while self._journal:
            addr_arr, old_bits = self._journal.pop()
            self.memory.scatter_words(addr_arr, old_bits)


class SiteCounter(InstrumentationLibrary):
    """Counts the FI calls of the running thread, per site and in all,
    and acts on none of them.

    A golden-prefix run of a replay victim uses it in place of the armed
    :class:`FaultInjectionLibrary`: the counts at a loop head are what
    :meth:`FaultInjectionLibrary.resume` continues from.  Every call
    answers None, so every FI statement runs its call.
    """

    def __init__(self) -> None:
        self.sites: Dict[int, int] = {}
        self.events = 0

    def lib_fi(self, ctx: ExecContext, frame: dict, site: int, name: str) -> None:
        self.sites[site] = self.sites.get(site, 0) + 1
        self.events += 1


class FaultInjectionLibrary(InstrumentationLibrary):
    """Runtime half of SWIFI: flips bits in live register frames."""

    def __init__(self, kernel: Kernel, spec: Optional[FaultSpec] = None):
        #: Site table of the *original* kernel (pre-instrumentation);
        #: shared by every library of the kernel, so read-only.
        self.sites: Dict[int, SiteInfo] = site_table(kernel)
        self.state = InjectionState()
        if spec is not None:
            self.arm(spec)

    def arm(self, spec: Optional[FaultSpec]) -> None:
        """Set (or clear) the fault for the next run."""
        if spec is not None and spec.site not in self.sites:
            raise InjectionError(f"fault targets unknown site {spec.site}")
        self.state.reset(spec)

    @property
    def activation(self) -> Optional[ActivationRecord]:
        return self.state.activation

    def resume(self, sites: Dict[int, int], events: int) -> None:
        """Continue the armed run from a golden checkpoint of the victim,
        which has made ``events`` FI calls by then, ``sites[s]`` of them
        at site ``s``; the fault has not struck yet."""
        spec = self.state.spec
        if spec.timing == "delayed":
            self.state.counters[("__events__", spec.thread)] = events
        else:
            self.state.counters[(spec.site, spec.thread)] = sites.get(spec.site, 0)

    @staticmethod
    def answer_before_strike(spec: FaultSpec, site: int):
        """What :meth:`lib_fi` last answered the victim of ``spec`` from
        a call statement at ``site`` that ran before the strike:
        :data:`RETIRE_CALL` for a definition-timed fault at another
        site, else None."""
        return RETIRE_CALL if spec.timing != "delayed" and site != spec.site else None

    # -- instrumentation entry point ------------------------------------
    def lib_fi(self, ctx: ExecContext, frame: dict, site: int, name: str):
        """Corrupt ``name`` if this call is the armed one.

        Returns :data:`RETIRE` once no later call in this thread can
        act: nothing is armed, the thread is not the victim, or the
        fault has struck for the last time.  Returns
        :data:`RETIRE_CALL` for a definition-timed fault at a call of
        another site: every call from the same statement passes that
        site again, since ``instrument_for_fi`` plants it as a constant,
        and no such call ever acts.  A delayed fault counts every hook
        event of the victim, so its calls before the strike return None.
        """
        spec = self.state.spec
        if spec is None:
            return RETIRE
        if ctx.block * ctx.block_size + ctx.thread != spec.thread:
            return RETIRE
        if spec.timing == "delayed":
            return self._delayed(ctx, frame, spec)
        if site != spec.site:
            return RETIRE_CALL
        # a transient fault hits one occurrence; an intermittent fault
        # stays active for `burst` consecutive occurrences (Section II.A);
        # the counter stops at the last one
        key = (site, spec.thread)
        count = self.state.counters.get(key, 0) + 1
        last = spec.occurrence + spec.burst - 1
        if count > last:
            return RETIRE
        self.state.counters[key] = count
        if count >= spec.occurrence:
            self._corrupt(ctx, frame, spec, name)
        return RETIRE if count == last else None

    def _delayed(self, ctx: ExecContext, frame: dict, spec: FaultSpec):
        """Delayed timing: strike at the thread's k-th hook event.

        The target variable is corrupted wherever the thread happens to
        be, provided the variable is live; an already-consumed pointer
        or value therefore escapes — the masking path that keeps real
        pointer-fault failure ratios moderate (Figure 1).
        """
        if self.state.activation is not None:
            return RETIRE
        key = ("__events__", spec.thread)
        count = self.state.counters.get(key, 0) + 1
        self.state.counters[key] = count
        if count < spec.occurrence:
            return None
        target = self.sites[spec.site].name
        if target not in frame:
            return None  # not yet live; strike at the next event
        self._corrupt(ctx, frame, spec, target)
        return RETIRE

    def _corrupt(self, ctx: ExecContext, frame: dict, spec: FaultSpec, name: str) -> None:
        info = self.sites[spec.site]
        original = frame[name]
        if info.dtype.is_float:
            corrupted = flip_float_bits(float(original), spec.mask)
        else:
            # integers and pointers share two's-complement bit flips;
            # a high-bit flip on a pointer lands outside mapped memory
            corrupted = flip_int_bits(int(original), spec.mask)
        frame[name] = corrupted
        if self.state.activation is None:
            self.state.activation = ActivationRecord(
                spec=spec,
                variable=name,
                original=original,
                corrupted=corrupted,
                block=ctx.block,
                thread_in_block=ctx.thread,
                at_step=ctx.steps,
            )
        else:
            self.state.activation.n_injections += 1
