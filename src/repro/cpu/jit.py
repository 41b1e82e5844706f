"""Host-side block compiler: guest basic blocks become Python closures.

The interpreter pays a per-instruction host tax -- fetch, two dict
probes, an ``Op`` dispatch chain -- for every simulated instruction.
This module applies the binary-translation idea one level down: decode a
guest basic block **once**, then emit a single specialized Python
function for it with operands, immediates and dispatch resolved at
compile time. Constant cycle charges (fetch hit, base instruction cost,
MUL/DIV extras) are pre-summed per block; only dynamic MMU charges are
accumulated at run time.

Three fast-path layers stack on top of the block closures (see
DESIGN.md, "JIT memory fast path"):

* **Inline caches** -- each load/store site in a paging block owns a
  ``(vpn, pte, frame_base)`` slot in a per-closure list. A hit requires
  the site's cached vpn to match *and* the TLB to still cache the same
  leaf PTE for it (one dict probe + integer compare); then the access
  skips ``mmu.translate`` entirely while replaying the exact bookkeeping
  a TLB hit performs (LRU touch, hit count, hit cycles).
* **Access forwarding** -- consecutive memory ops often land on the same
  page (push/pop runs, load-after-store). The compiler threads the last
  translation through locals and forwards it when the page matches,
  without even an IC probe. Nothing between two adjacent accesses can
  touch the TLB, so presence is guaranteed; only a store forwarding from
  a load re-checks W|D bits (a clean page must miss and walk to set D).
* **Self-looping blocks** -- a conditional branch whose taken target is
  its own block start re-enters the closure without going through the
  dispatcher, re-arming only the per-iteration counters. Instruction
  and cycle budgets are honoured at each loop edge via limits the
  dispatcher publishes on the core (``_loop_stop`` / ``_cycle_stop``).

Generated source depends only on the block's instructions, addresses
and cost constants, never on the core, so code objects are memoized
process-wide by source text: every VM booting the same kernel compiles
each block once. Closures, their namespaces and inline-cache slots stay
per core.

Correctness contract (enforced by the differential tests): simulated
``cycles``/``instret``/register/CSR state, TLB statistics and TLB LRU
order are **bit-identical** to the reference interpreter. Anything the
straight-line fast path cannot reproduce exactly -- traps, page faults,
VM exits, self-modifying code, TLB eviction of the executing code page,
instruction-budget boundaries -- restores the precise architectural
boundary state and either delivers the trap exactly as the interpreter
would or falls back to :meth:`CPUCore.step`.

Two consumers:

* :class:`BlockJIT` -- per-core engine behind ``CPUCore.run()``, over
  every MMU (bare, shadow, two-stage) and under any VMM policy. Blocks
  are keyed by *physical* start address (content-addressed), validated
  against physmem write watchers (self-modifying code) and a per-pc
  dispatch cache revalidated by PTE compare (so ``set_root``,
  ``invlpg``, view switches, flushes and evictions all stop the fast
  path until the next successful re-probe).
* :func:`compile_bt_block` -- fuses a :class:`TranslatedBlock`'s item
  list (native runs inlined, callouts as captured calls) so the binary
  translator stops re-walking its tag list on every execution. The BT
  layer keeps the conservative translate-per-access path: its MMU is
  virtualized and may exit to the monitor.
"""

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.exits import VMExit
from repro.cpu.isa import Cause, DecodeError, Instruction, Op, decode
from repro.cpu.mmu import BareMMU
from repro.mem.paging import AccessType, PageFault, PTE_DIRTY, PTE_WRITABLE
from repro.util.errors import MemoryError_

__all__ = ["BlockJIT", "compile_bt_block"]

#: Maximum instructions fused into one compiled block.
MAX_BLOCK_INSTRUCTIONS = 32

#: Dispatch/pc-cache size bound (cleared wholesale when exceeded).
_PC_CACHE_MAX = 16384

#: Process-wide code-object cache bound (cleared wholesale when exceeded).
_CODE_CACHE_MAX = 2048
#: Generated block source -> compiled module code object.
_CODE_CACHE: Dict[str, object] = {}

_MEM_OPS = frozenset({Op.LD, Op.ST, Op.LDB, Op.STB})
_STORE_OPS = frozenset({Op.ST, Op.STB})
_TERMINATORS = frozenset(
    {Op.JAL, Op.JALR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU}
)
_BRANCH_COND = {
    Op.BEQ: ("==", False),
    Op.BNE: ("!=", False),
    Op.BLT: ("<", True),
    Op.BGE: (">=", True),
    Op.BLTU: ("<", False),
    Op.BGEU: (">=", False),
}

#: Store-forwarding W|D mask: a store may reuse a load's translation
#: only if the cached PTE is already writable *and* dirty (otherwise the
#: reference lookup misses and walks to set D).
_WD = PTE_WRITABLE | PTE_DIRTY

#: Negative-cache marker for "starts with something we cannot compile".
_UNCOMPILABLE: Tuple = ()

_U32 = struct.Struct("<I")


def _sgn(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def _r(index: int) -> str:
    """Register read expression; r0 folds to the literal 0."""
    return "0" if index == 0 else f"regs[{index}]"


def _addr_expr(ins: Instruction) -> str:
    if ins.ra == 0:
        return str(ins.simm12 & 0xFFFFFFFF)
    return f"(regs[{ins.ra}] + {ins.simm12}) & 0xFFFFFFFF"


def _alu_expr(op: Op, ins: Instruction) -> str:
    """Expression for a pure ALU result (DIVU/REMU handled by caller)."""
    a = _r(ins.ra)
    is_imm, b = ins.operand_b
    bx = str(b) if is_imm else _r(b)
    if op is Op.ADD:
        return f"({a} + {bx}) & 0xFFFFFFFF"
    if op is Op.SUB:
        return f"({a} - {bx}) & 0xFFFFFFFF"
    if op is Op.MUL:
        return f"({a} * {bx}) & 0xFFFFFFFF"
    if op is Op.AND:
        return f"{a} & {bx}"
    if op is Op.OR:
        return f"{a} | {bx}"
    if op is Op.XOR:
        return f"{a} ^ {bx}"
    if op is Op.SHL:
        sh = str(b & 31) if is_imm else f"({bx} & 31)"
        return f"({a} << {sh}) & 0xFFFFFFFF"
    if op is Op.SHR:
        sh = str(b & 31) if is_imm else f"({bx} & 31)"
        return f"{a} >> {sh}"
    if op is Op.SAR:
        sh = str(b & 31) if is_imm else f"({bx} & 31)"
        return f"(_sgn({a}) >> {sh}) & 0xFFFFFFFF"
    if op is Op.SLT:
        bs = str(_sgn(b)) if is_imm else f"_sgn({bx})"
        return f"(1 if _sgn({a}) < {bs} else 0)"
    if op is Op.SLTU:
        return f"(1 if {a} < {bx} else 0)"
    if op is Op.MOV:
        return a
    if op is Op.MOVI:
        return str(ins.imm32)
    raise AssertionError(f"not a pure ALU op: {op}")


class _Src:
    """Indented source accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _item_const_cycles(costs, kind: str, ins: Instruction, fetch_c: int) -> int:
    """Compile-time-known cycle charge for one block item."""
    if kind == "callout":
        return costs.bt_callout_cycles
    c = costs.instr_cycles + fetch_c
    if ins.op is Op.MUL:
        c += costs.mul_extra_cycles
    elif ins.op in (Op.DIVU, Op.REMU):
        c += costs.div_extra_cycles
    return c


def _compile_items(
    costs,
    items: List[Tuple[str, Instruction, int]],
    *,
    layer: str,  # "cpu" | "bt"
    paging: bool = False,
    vpn: int = 0,
    epoch_cell: Optional[list] = None,
    ic_cell: Optional[list] = None,
    callout: Optional[Callable[[Instruction], bool]] = None,
    inline_walk: bool = False,
) -> Callable:
    """Generate and compile one block closure from classified items.

    ``items`` is a list of ("native" | "callout", instruction, va); the
    cycle/instret/trap semantics produced are bit-identical to the
    reference paths (``CPUCore.step`` / ``BTEngine._execute_block``).
    ``inline_walk`` allows inlining the :class:`BareMMU` miss walk into
    self-looping blocks; other MMUs always miss through ``translate``.
    """
    n = len(items)
    track_tlb = layer == "cpu" and paging
    fetch_c = costs.tlb_hit_cycles if track_tlb else 0
    hit_c = costs.tlb_hit_cycles

    pre = [0]
    reta: List[int] = []  # retired instruction count *after* item k
    retired = 0
    for kind, ins, _va in items:
        pre.append(pre[-1] + _item_const_cycles(costs, kind, ins, fetch_c))
        # Callouts retire too (the bump itself happens inside
        # BTEngine._callout, shared with the reference walk): a guest
        # instruction rewritten into monitor emulation still retires
        # architecturally, exactly as its intercepted-and-emulated
        # counterpart does under hardware assist.
        retired += 1
        reta.append(retired)

    mem_indices = [
        k for k, (kind, ins, _va) in enumerate(items)
        if kind == "native" and ins.op in _MEM_OPS
    ]
    has_mem = bool(mem_indices)
    has_store = any(
        k == "native" and i.op in _STORE_OPS for k, i, _ in items
    )
    has_div_reg = any(
        k == "native" and i.op in (Op.DIVU, Op.REMU) and not i.has_imm32
        for k, i, _ in items
    )
    has_callout = any(k == "callout" for k, i, _ in items)
    guarded = has_mem  # only memory accesses can raise mid-block
    snapshot = guarded or has_div_reg or has_callout
    # Both layers bail at a store that invalidated compiled code (the
    # BT engine shares its invalidation epoch the same way the bare
    # core's BlockJIT does), so rewritten code is fetched fresh.
    smc_check = has_store and epoch_cell is not None
    # Inline-cached translations: only for core blocks that translate
    # through the TLB (BT's translate-per-access path stays conservative).
    fast_mem = track_tlb and has_mem
    # A conditional branch back to the block's own start re-enters the
    # closure directly (budgets permitting) instead of re-dispatching.
    last_kind, last_ins, _lv = items[-1]
    selfloop = (
        layer == "cpu"
        and last_kind == "native"
        and last_ins.op in _BRANCH_COND
        and last_ins.imm32 == items[0][2]
    )
    # Self-looping blocks are hot by construction, so their IC-miss
    # slow path additionally inlines the whole reference translate
    # (TLB probe + 2-level walk + insert/evict bookkeeping) straight
    # into the closure, replicating translate/walk_quick/TLB.insert
    # statement for statement. Dispatcher-bound blocks keep the plain
    # `tr()` call: their preamble must stay cheap.
    deep = fast_mem and selfloop and inline_walk
    miss_c = costs.tlb_miss_cycles

    # Static forwarding plan: memory op k may reuse the translation of
    # the previous memory op (cross-iteration in self-looping blocks:
    # the first op forwards from the last, since nothing between the
    # last access and the loop edge can touch the TLB).
    prev_mem: Dict[int, int] = {}
    if fast_mem:
        for j, k in enumerate(mem_indices):
            if j > 0:
                prev_mem[k] = mem_indices[j - 1]
            elif selfloop:
                prev_mem[k] = mem_indices[-1]
    site_slot = {k: 1 + 3 * j for j, k in enumerate(mem_indices)}
    need_fwd = bool(prev_mem)

    def _is_store(k: int) -> bool:
        return items[k][1].op in _STORE_OPS

    # A store forwarding from a load must re-check W|D on the cached
    # PTE, so every path then has to keep the last PTE in a local.
    need_lt = any(
        _is_store(k) and not _is_store(p) for k, p in prev_mem.items()
    )

    src = _Src()
    src.emit(0, "def _block(cpu):")
    src.emit(1, "regs = cpu.regs")
    if track_tlb:
        src.emit(1, "te = cpu.mmu.tlb")
        src.emit(1, "st = te.stats")
        src.emit(1, "mv = te._entries.move_to_end")
        if has_mem:
            src.emit(1, "eg = te.entry_get")
    if smc_check:
        src.emit(1, "j0 = _jw[0]")
    # With callouts in the block, monitor emulation could in principle
    # change the real MODE csr mid-block, so the user flag for translate
    # must be read live instead of hoisted.
    u_expr = "u"
    if has_mem:
        if layer == "bt" or paging:
            src.emit(1, "mmu = cpu.mmu")
            src.emit(1, "tr = mmu.translate")
            if has_callout:
                u_expr = "cpu.csr[0] == 1"
            else:
                src.emit(1, "u = cpu.csr[0] == 1")
            src.emit(1, "pm = mmu.physmem")
        else:
            src.emit(1, "pm = cpu.mmu.physmem")
        ops_used = {i.op for k, i, _ in items if k == "native"}
        if Op.LD in ops_used:
            src.emit(1, "r32 = pm.read_u32")
        if Op.ST in ops_used:
            src.emit(1, "w32 = pm.write_u32")
        if Op.LDB in ops_used:
            src.emit(1, "r8 = pm.read_u8")
        if Op.STB in ops_used:
            src.emit(1, "w8 = pm.write_u8")
    if fast_mem:
        # Entry guards: snapshot the code page's cached PTE (every fetch
        # in the block must keep hitting exactly this translation) and
        # drop the site caches if the privilege mode changed since fill.
        src.emit(1, f"cpte = eg({vpn})")
        src.emit(1, "if u is not _ic[0]:")
        src.emit(2, "_ic[1:] = _ICR")
        src.emit(2, "_ic[0] = u")
        if deep:
            src.emit(1, "_e = te._entries")
            src.emit(1, "_wk = mmu.walker")
            src.emit(1, "_rpa = mmu.root_pa")
            src.emit(1, "_cap = te.capacity")
            src.emit(1, "_mb = pm._data")
            src.emit(1, "_msz = pm.size")
            src.emit(1, "pr32 = pm.read_u32")
            src.emit(1, "pw32 = pm.write_u32")
        if need_fwd:
            src.emit(1, "_lp = -1")
            src.emit(1, "_lb = 0")
            if need_lt:
                src.emit(1, "_lt = 0")
    if selfloop:
        src.emit(1, "_is = cpu._loop_stop")
        src.emit(1, "_cs = cpu._cycle_stop")
    if guarded:
        src.emit(1, "try:")
    depth = 2 if guarded else 1
    if selfloop:
        src.emit(depth, "while 1:")
        depth += 1
    if snapshot:
        src.emit(depth, "c0 = cpu.cycles")
        src.emit(depth, "i0 = cpu.instret")
        src.emit(depth, "mc = 0")
    if fast_mem:
        src.emit(depth, "_h = 0")
    if guarded:
        src.emit(depth, "_n = -1")

    def counters(d: int, j: int, ret: int, mv_mode: Optional[str]) -> None:
        """Commit cycles/instret (+TLB fetch stats) at boundary ``j``."""
        hits_extra = f" + _h * {hit_c}" if fast_mem and hit_c else ""
        if snapshot:
            src.emit(d, f"cpu.cycles = c0 + {pre[j]} + mc{hits_extra}")
            src.emit(d, f"cpu.instret = i0 + {ret}")
        else:
            src.emit(d, f"cpu.cycles += {pre[j]}")
            src.emit(d, f"cpu.instret += {ret}")
        if track_tlb:
            if fast_mem:
                src.emit(d, f"st.hits += {j} + _h")
                src.emit(d, "_ich[0] += _h")
            else:
                src.emit(d, f"st.hits += {j}")
            if mv_mode == "plain":
                src.emit(d, f"mv({vpn})")
            elif mv_mode == "guarded":
                src.emit(d, f"if {vpn} in te._entries:")
                src.emit(d + 1, f"mv({vpn})")

    for k, (kind, ins, va) in enumerate(items):
        op = ins.op
        nxt = (va + ins.length) & 0xFFFFFFFF
        last = k == n - 1

        if kind == "callout":
            src.emit(depth, f"cpu.cycles = c0 + {pre[k + 1]} + mc")
            # reta[k] - 1: everything *before* this callout; _co itself
            # retires the callout instruction (BTEngine._callout).
            src.emit(depth, f"cpu.instret = i0 + {reta[k] - 1}")
            src.emit(depth, f"cpu.pc = {va}")
            if guarded:
                src.emit(depth, "_n = -1")
            if last:
                # The callout (emulation / reflection / IRET) leaves pc
                # and cycles in their final architectural state.
                src.emit(depth, f"_co(_I[{k}])")
                src.emit(depth, "return")
            else:
                src.emit(depth, f"if _co(_I[{k}]):")
                src.emit(depth + 1, "return")
                src.emit(depth, f"mc = cpu.cycles - c0 - {pre[k + 1]}")
            continue

        if op in _MEM_OPS:
            is_store = op in _STORE_OPS

            def access_stmt(loc: str) -> str:
                if op is Op.LD:
                    tgt = f"regs[{ins.rd}] = " if ins.rd else ""
                    return f"{tgt}r32({loc})"
                if op is Op.LDB:
                    tgt = f"regs[{ins.rd}] = " if ins.rd else ""
                    return f"{tgt}r8({loc})"
                if op is Op.ST:
                    return f"w32({loc}, {_r(ins.rb)})"
                return f"w8({loc}, {_r(ins.rb)} & 0xFF)"

            if not fast_mem:
                # Conservative path (BT layer, paging-off blocks): every
                # access goes through translate / direct physmem.
                src.emit(depth, f"_n = {k}")
                if track_tlb:
                    src.emit(depth, f"mv({vpn})")
                addr = _addr_expr(ins)
                if layer == "bt" or paging:
                    at = "_AW" if is_store else "_AR"
                    src.emit(depth, f"_a, _c = tr({addr}, {at}, {u_expr})")
                    src.emit(depth, "mc += _c")
                    loc = "_a"
                else:
                    loc = addr
                src.emit(depth, access_stmt(loc))
                # Stores may have hit compiled code (jit epoch); bail at
                # the exact boundary so the next fetch re-validates.
                if is_store and smc_check and not last:
                    src.emit(depth, "if _jw[0] != j0:")
                    counters(depth + 1, k + 1, reta[k], None)
                    src.emit(depth + 1, f"cpu.pc = {nxt}")
                    src.emit(depth + 1, "return")
                continue

            # Inline-cached path. Order per access, mirroring the
            # interpreter: fetch LRU touch, translate (forward / IC /
            # translate), access, then guard bailouts.
            b = site_slot[k]
            at = "_AW" if is_store else "_AR"
            src.emit(depth, f"_n = {k}")
            src.emit(depth, f"mv({vpn})")
            src.emit(depth, f"_va = {_addr_expr(ins)}")
            src.emit(depth, "_vp = _va >> 12")

            def smc_bail(d: int) -> None:
                if is_store and not last:
                    src.emit(d, "if _jw[0] != j0:")
                    counters(d + 1, k + 1, reta[k], None)
                    src.emit(d + 1, f"cpu.pc = {nxt}")
                    src.emit(d + 1, "return")

            prev = prev_mem.get(k)
            head = "if"
            if prev is not None:
                cond = "_vp == _lp"
                if is_store and not _is_store(prev):
                    cond += f" and _lt & {_WD} == {_WD}"
                src.emit(depth, f"if {cond}:")
                src.emit(depth + 1, "mv(_vp)")
                src.emit(depth + 1, "_h += 1")
                src.emit(depth + 1, access_stmt("_lb | (_va & 0xFFF)"))
                smc_bail(depth + 1)
                head = "elif"
            src.emit(
                depth, f"{head} _ic[{b}] == _vp and eg(_vp) == _ic[{b + 1}]:"
            )
            src.emit(depth + 1, "mv(_vp)")
            src.emit(depth + 1, "_h += 1")
            if need_fwd:
                src.emit(depth + 1, "_lp = _vp")
                src.emit(depth + 1, f"_lb = _ic[{b + 2}]")
                if need_lt:
                    src.emit(depth + 1, f"_lt = _ic[{b + 1}]")
                src.emit(depth + 1, access_stmt("_lb | (_va & 0xFFF)"))
            else:
                src.emit(depth + 1, access_stmt(f"_ic[{b + 2}] | (_va & 0xFFF)"))
            smc_bail(depth + 1)
            src.emit(depth, "else:")
            if deep:
                # Inline replica of BareMMU.translate on this access
                # class: probe (reference lookup conditions + stats +
                # LRU), then walk_quick (raw reads, fault order, A/D
                # write visibility), then TLB.insert (LRU refresh or
                # evict + epoch), then the IC/forwarding fill.
                hit_cond = "not u or _pte & 4"
                if is_store:
                    hit_cond = f"({hit_cond}) and _pte & 18 == 18"
                src.emit(depth + 1, "_pte = _e.get(_vp)")
                src.emit(depth + 1, f"if _pte is not None and ({hit_cond}):")
                src.emit(depth + 2, "mv(_vp)")
                src.emit(depth + 2, "st.hits += 1")
                if hit_c:
                    src.emit(depth + 2, f"mc += {hit_c}")
                src.emit(depth + 2, "_fb = _pte & 0xFFFFF000")
                src.emit(depth + 1, "else:")
                d = depth + 2
                src.emit(d, "st.misses += 1")
                src.emit(d, "_wk.walks += 1")
                src.emit(d, "_p1 = _rpa + ((_va >> 22) & 0x3FF) * 4")
                src.emit(d, "if _p1 + 4 > _msz:")
                src.emit(d + 1, "pr32(_p1)")
                src.emit(d, "_pde = _up(_mb, _p1)[0]")
                src.emit(d, "if not _pde & 1:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, False)")
                src.emit(d, "_p2 = (_pde >> 12 << 12) + ((_va >> 12) & 0x3FF) * 4")
                src.emit(d, "if _p2 + 4 > _msz:")
                src.emit(d + 1, "pr32(_p2)")
                src.emit(d, "_pte = _up(_mb, _p2)[0]")
                src.emit(d, "if not _pte & 1:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, False)")
                src.emit(d, "if u and not _pde & _pte & 4:")
                src.emit(d + 1, "_wk.faults += 1")
                src.emit(d + 1, f"raise _PF(_va, {at}, u, True)")
                if is_store:
                    src.emit(d, "if not _pde & _pte & 2:")
                    src.emit(d + 1, "_wk.faults += 1")
                    src.emit(d + 1, f"raise _PF(_va, {at}, u, True)")
                src.emit(d, "if not _pde & 8:")
                src.emit(d + 1, "pw32(_p1, _pde | 8)")
                src.emit(d, f"_t = _pte | {24 if is_store else 8}")
                src.emit(d, "if _t != _pte:")
                src.emit(d + 1, "pw32(_p2, _t)")
                src.emit(d + 1, "_pte = _t")
                src.emit(d, "if _vp in _e:")
                src.emit(d + 1, "mv(_vp)")
                src.emit(d + 1, "if _e[_vp] != _pte:")
                src.emit(d + 2, "te.epoch += 1")
                src.emit(d + 1, "_e[_vp] = _pte")
                src.emit(d, "else:")
                src.emit(d + 1, "if len(_e) >= _cap:")
                src.emit(d + 2, "_e.popitem(last=False)")
                src.emit(d + 2, "st.evictions += 1")
                src.emit(d + 2, "te.epoch += 1")
                src.emit(d + 1, "_e[_vp] = _pte")
                src.emit(d, f"mc += {miss_c}")
                src.emit(d, "_fb = _pte & 0xFFFFF000")
                src.emit(depth + 1, f"_ic[{b}] = _vp")
                src.emit(depth + 1, f"_ic[{b + 1}] = _pte")
                src.emit(depth + 1, f"_ic[{b + 2}] = _fb")
                if need_fwd:
                    src.emit(depth + 1, "_lp = _vp")
                    src.emit(depth + 1, "_lb = _fb")
                    if need_lt:
                        src.emit(depth + 1, "_lt = _pte")
                src.emit(depth + 1, access_stmt("_fb | (_va & 0xFFF)"))
            else:
                src.emit(depth + 1, f"_a, _c = tr(_va, {at}, u)")
                src.emit(depth + 1, "mc += _c")
                src.emit(depth + 1, f"_ic[{b}] = _vp")
                if need_lt:
                    src.emit(depth + 1, "_lt = eg(_vp)")
                    src.emit(depth + 1, f"_ic[{b + 1}] = _lt")
                else:
                    src.emit(depth + 1, f"_ic[{b + 1}] = eg(_vp)")
                src.emit(depth + 1, f"_ic[{b + 2}] = _a & 0xFFFFF000")
                if need_fwd:
                    src.emit(depth + 1, "_lp = _vp")
                    src.emit(depth + 1, f"_lb = _ic[{b + 2}]")
                src.emit(depth + 1, access_stmt("_a"))
            # The translate may have evicted or changed the executing
            # code page's entry (so the next fetch would miss); stores
            # may also have hit compiled code. Bail at the boundary.
            conds = [f"eg({vpn}) != cpte"]
            if is_store and smc_check:
                conds.append("_jw[0] != j0")
            if not last:
                src.emit(depth + 1, f"if {' or '.join(conds)}:")
                counters(depth + 2, k + 1, reta[k], None)
                src.emit(depth + 2, f"cpu.pc = {nxt}")
                src.emit(depth + 2, "return")
            continue

        if op in (Op.DIVU, Op.REMU) and not ins.has_imm32:
            src.emit(depth, f"_b = {_r(ins.rb)}")
            src.emit(depth, "if not _b:")
            counters(depth + 1, k + 1, reta[k], "guarded" if track_tlb else None)
            src.emit(depth + 1, f"cpu.pc = {va}")
            if guarded:
                # Everything is committed (the DIV0 retires, like the
                # interpreter's _alu path).  Under a deprivileging
                # policy _trap raises VMExit(GUEST_TRAP), which would
                # land in our own except-_VX handler and roll state
                # back to the last *memory* op's boundary -- disarm it,
                # exactly as the callout path does.
                src.emit(depth + 1, "_n = -1")
            src.emit(depth + 1, f"cpu._trap(_DIV0, 0, {va})")
            src.emit(depth + 1, "return")
            if ins.rd:
                sym = "//" if op is Op.DIVU else "%"
                src.emit(depth, f"regs[{ins.rd}] = {_r(ins.ra)} {sym} _b")
            continue

        if op in (Op.DIVU, Op.REMU):  # immediate divisor, known nonzero
            if ins.rd:
                sym = "//" if op is Op.DIVU else "%"
                src.emit(depth, f"regs[{ins.rd}] = {_r(ins.ra)} {sym} {ins.imm32}")
            continue

        if op in _TERMINATORS:
            mv_mode = "plain" if track_tlb else None
            counters(depth, n, reta[-1], mv_mode)
            if op is Op.JAL:
                if ins.rd:
                    src.emit(depth, f"regs[{ins.rd}] = {nxt}")
                src.emit(depth, f"cpu.pc = {ins.imm32}")
            elif op is Op.JALR:
                src.emit(depth, f"_t = {_r(ins.ra)}")
                if ins.rd:
                    src.emit(depth, f"regs[{ins.rd}] = {nxt}")
                src.emit(depth, "cpu.pc = _t")
            else:
                sym, signed = _BRANCH_COND[op]
                a, b = _r(ins.ra), _r(ins.rb)
                if signed:
                    a, b = f"_sgn({a})", f"_sgn({b})"
                if selfloop:
                    # Loop back without re-dispatching while both budget
                    # ceilings allow a whole further iteration; any
                    # other condition returns to the dispatcher, which
                    # re-validates everything before the next entry.
                    src.emit(depth, f"if {a} {sym} {b}:")
                    src.emit(depth + 1, f"cpu.pc = {ins.imm32}")
                    src.emit(
                        depth + 1,
                        f"if cpu.instret + {n} <= _is and cpu.cycles < _cs:",
                    )
                    src.emit(depth + 2, "continue")
                    src.emit(depth + 1, "return")
                    src.emit(depth, f"cpu.pc = {nxt}")
                    src.emit(depth, "return")
                    continue
                src.emit(
                    depth,
                    f"cpu.pc = {ins.imm32} if {a} {sym} {b} else {nxt}",
                )
            src.emit(depth, "return")
            continue

        # Pure ALU / moves.
        if op is Op.NOP or ins.rd == 0:
            continue
        src.emit(depth, f"regs[{ins.rd}] = {_alu_expr(op, ins)}")

    # Fall-through block end (size/page limit, or trailing non-stop
    # callout which already left pc == end va).
    if not (last_kind == "native" and last_ins.op in _TERMINATORS):
        if last_kind == "callout":
            pass  # everything committed around the callout
        else:
            end_va = (items[-1][2] + items[-1][1].length) & 0xFFFFFFFF
            mv_mode = (
                "plain"
                if track_tlb and last_ins.op not in _MEM_OPS
                else None
            )
            counters(depth, n, reta[-1], mv_mode)
            src.emit(depth, f"cpu.pc = {end_va}")
            src.emit(depth, "return")

    if guarded:
        # A page fault retires the faulting access (the trap is
        # delivered with it architecturally complete), but a VMExit is
        # serviced by the monitor and the instruction re-executes or is
        # finished by the emulator -- that attempt does not retire,
        # mirroring the interpreter's rollback in CPUCore.execute.
        for handler, retired, tail in (
            (
                "except _PF as f:",
                "_RA[_n]",
                f"cpu._trap(_PFW if f.access is _AW else _PFR, "
                f"f.vaddr, _V[_n], _I[_n])",
            ),
            ("except _VX:", "_RA[_n] - 1", "raise"),
            ("except BaseException:", "_RA[_n]", "raise"),
        ):
            src.emit(1, handler)
            src.emit(2, "if _n < 0:")
            src.emit(3, "raise")
            hits_extra = f" + _h * {hit_c}" if fast_mem and hit_c else ""
            src.emit(2, f"cpu.cycles = c0 + _P[_n + 1] + mc{hits_extra}")
            src.emit(2, f"cpu.instret = i0 + {retired}")
            if track_tlb:
                if fast_mem:
                    src.emit(2, "st.hits += _n + 1 + _h")
                    src.emit(2, "_ich[0] += _h")
                else:
                    src.emit(2, "st.hits += _n + 1")
                src.emit(2, f"if {vpn} in te._entries:")
                src.emit(3, f"mv({vpn})")
            src.emit(2, "cpu.pc = _V[_n]")
            src.emit(2, tail)
            if tail != "raise":
                src.emit(2, "return")

    ns: Dict[str, object] = {
        "_P": tuple(pre),
        "_V": tuple(va for _, _, va in items),
        "_I": tuple(ins for _, ins, _ in items),
        "_RA": tuple(reta),
        "_PF": PageFault,
        "_VX": VMExit,
        "_AW": AccessType.WRITE,
        "_AR": AccessType.READ,
        "_PFW": Cause.PF_WRITE,
        "_PFR": Cause.PF_READ,
        "_DIV0": Cause.DIV0,
        "_sgn": _sgn,
        "_jw": epoch_cell,
        "_co": callout,
    }
    if fast_mem:
        nsites = len(mem_indices)
        # [mode, site0_vpn, site0_pte, site0_base, site1_vpn, ...]
        ns["_ic"] = [False] + [-1, 0, 0] * nsites
        ns["_ICR"] = (-1, 0, 0) * nsites
        ns["_ich"] = ic_cell if ic_cell is not None else [0]
        if deep:
            ns["_up"] = _U32.unpack_from
    text = src.text()
    code = _CODE_CACHE.get(text)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[text] = compile(text, "<pyvisor-jit>", "exec")
    exec(code, ns)  # noqa: S102
    return ns["_block"]  # type: ignore[return-value]


def compile_bt_block(engine, block) -> Callable:
    """Fuse a :class:`~repro.core.bt.TranslatedBlock` into one closure.

    Semantics are bit-identical to ``BTEngine._execute_block``: natives
    charge ``instr_cycles`` (+ALU extras) and execute inline; callouts
    charge ``bt_callout_cycles`` and call ``engine._callout`` with
    cycles/instret/pc committed, so emulation sees live state.
    """
    items: List[Tuple[str, Instruction, int]] = []
    va = block.start_va
    for kind, ins in block.items:
        items.append((kind, ins, va))
        va = (va + ins.length) & 0xFFFFFFFF
    return _compile_items(
        engine.costs, items, layer="bt", callout=engine._callout,
        epoch_cell=engine._epoch,
    )


class BlockJIT:
    """Per-core compiled-block cache behind ``CPUCore.run()``.

    Works over any MMU whose translation goes through its ``tlb``
    (:meth:`~repro.cpu.mmu.MMUBase.via_tlb`): bare with paging on, shadow
    with guest paging on, two-stage always. All share the TLB-hit
    semantics the inline caches replay; a miss calls ``mmu.translate``,
    which may raise a :class:`VMExit` the block rolls back precisely.
    A bare MMU with paging off runs blocks at identity addresses; a
    shadow MMU with guest paging off (boot code) steps. Blocks are
    keyed ``(pa, va, paging)`` -- content-addressed by physical start so
    a root switch never runs stale code -- and dropped when a physmem
    write watcher reports a store into their frame. Dispatch goes
    through a per-``(pc, mode)`` cache revalidated by one PTE compare
    against the live TLB entry, so flush / invlpg / eviction / PTE
    change all force a fresh EXEC probe before any stale block runs.
    """

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.mmu = cpu.mmu
        self.physmem = cpu.mmu.physmem
        self._via_tlb = cpu.mmu.via_tlb
        #: Only a bare MMU passes untranslated addresses through as-is
        #: and has a miss walk simple enough to inline.
        self._bare = type(cpu.mmu) is BareMMU
        self._blocks: Dict[Tuple[int, int, bool], Tuple] = {}
        self._frame_keys: Dict[int, set] = {}
        #: Dispatch caches: (pc << 1) | mode -> (block, vpn, pte) under
        #: paging; pc -> block with paging off. Entries self-invalidate
        #: by PTE compare; SMC and cost changes clear them wholesale.
        self._pc_pg: Dict[int, Tuple] = {}
        self._pc_bare: Dict[int, Tuple] = {}
        self._epoch_cell = [0]
        #: Shared across closures: data accesses served by inline caches
        #: or forwarding (host-side telemetry; sim stats are unaffected).
        self._ic_cell = [0]
        self._costs_sig = self._sig()
        self.blocks_compiled = 0
        self.blocks_invalidated = 0
        self.fallback_steps = 0

    # -- bookkeeping -----------------------------------------------------

    def _sig(self) -> Tuple[int, int, int, int]:
        c = self.cpu.costs
        return (
            c.instr_cycles,
            c.mul_extra_cycles,
            c.div_extra_cycles,
            c.tlb_hit_cycles,
        )

    def check_costs(self) -> None:
        """Drop compiled code if the cost model changed since compile."""
        sig = self._sig()
        if sig != self._costs_sig:
            self._costs_sig = sig
            self.flush()

    def flush(self) -> None:
        self._blocks.clear()
        self._frame_keys.clear()
        self._pc_pg.clear()
        self._pc_bare.clear()
        self._epoch_cell[0] += 1

    def invalidate_pfn(self, pfn: int) -> None:
        """A store hit a frame with compiled code: drop its blocks."""
        keys = self._frame_keys.pop(pfn, None)
        if not keys:
            return
        blocks = self._blocks
        for key in keys:
            if blocks.pop(key, None):
                self.blocks_invalidated += 1
        # The dispatch caches hold direct references to dropped blocks.
        self._pc_pg.clear()
        self._pc_bare.clear()
        self._epoch_cell[0] += 1

    def stats(self) -> Dict[str, int]:
        return {
            "blocks_compiled": self.blocks_compiled,
            "blocks_invalidated": self.blocks_invalidated,
            "fallback_steps": self.fallback_steps,
            "blocks_cached": len(self._blocks),
            "ic_hits": self._ic_cell[0],
            "pc_cache_entries": len(self._pc_pg) + len(self._pc_bare),
        }

    # -- dispatch --------------------------------------------------------

    def lookup(self, pc: int, mode: int = 0) -> Optional[Tuple]:
        """Return ``(closure, n_instructions)`` for ``pc``, or None.

        None means "take one reference-interpreter step": EXEC
        translation not cached right now (TLB miss -- the step will
        walk and refill), or the block starts with something the
        compiler does not handle (system ops, page-straddling code).
        ``mode`` is the live MODE csr (privilege is part of the key).
        """
        mmu = self.mmu
        if self._via_tlb():
            key = (pc << 1) | mode
            ent = self._pc_pg.get(key)
            if ent is not None and mmu.tlb.entry_get(ent[1]) == ent[2]:
                blk = ent[0]
            else:
                vpn = pc >> 12
                pte = mmu.tlb.peek(vpn, AccessType.EXEC, mode == 1)
                if pte is None:
                    self.fallback_steps += 1
                    return None
                pa = (pte >> 12 << 12) | (pc & 0xFFF)
                bkey = (pa, pc, True)
                blk = self._blocks.get(bkey)
                if blk is None:
                    blk = self._compile(bkey, pa, pc, True)
                if len(self._pc_pg) > _PC_CACHE_MAX:
                    self._pc_pg.clear()
                self._pc_pg[key] = (blk, vpn, pte)
        elif self._bare:
            blk = self._pc_bare.get(pc)
            if blk is None:
                pa = pc & 0xFFFFFFFF
                bkey = (pa, pc, False)
                blk = self._blocks.get(bkey)
                if blk is None:
                    blk = self._compile(bkey, pa, pc, False)
                if len(self._pc_bare) > _PC_CACHE_MAX:
                    self._pc_bare.clear()
                self._pc_bare[pc] = blk
        else:
            self.fallback_steps += 1
            return None
        if blk:
            return blk
        self.fallback_steps += 1
        return None

    def _compile(self, key, pa: int, va: int, paging: bool) -> Tuple:
        physmem = self.physmem
        items: List[Tuple[str, Instruction, int]] = []
        off = va & 0xFFF
        cursor_pa, cursor_va = pa, va
        try:
            while len(items) < MAX_BLOCK_INSTRUCTIONS and off + 4 <= 0x1000:
                word = physmem.read_u32(cursor_pa)
                has_imm = bool((word >> 24) & 0x80)
                length = 8 if has_imm else 4
                if off + length > 0x1000:
                    break  # straddles the page: interpreter handles it
                imm_word = physmem.read_u32(cursor_pa + 4) if has_imm else 0
                ins = decode(word, imm_word)
                op = ins.op
                if op.value > Op.BGEU.value:
                    break  # system ops take the reference path
                if op in (Op.DIVU, Op.REMU) and ins.has_imm32 and not ins.imm32:
                    break  # constant DIV0 always traps: reference path
                items.append(("native", ins, cursor_va))
                off += length
                cursor_pa += length
                cursor_va = (cursor_va + length) & 0xFFFFFFFF
                if op in _TERMINATORS:
                    break
        except (DecodeError, MemoryError_):
            pass  # undecodable/unmapped tail: block ends before it
        if items:
            fn = _compile_items(
                self.cpu.costs,
                items,
                layer="cpu",
                paging=paging,
                vpn=va >> 12,
                epoch_cell=self._epoch_cell,
                ic_cell=self._ic_cell,
                inline_walk=self._bare,
            )
            blk: Tuple = (fn, len(items))
            self.blocks_compiled += 1
        else:
            blk = _UNCOMPILABLE
        self._blocks[key] = blk
        pfn = pa >> 12
        self._frame_keys.setdefault(pfn, set()).add(key)
        self.cpu._code_pfns.add(pfn)
        return blk
