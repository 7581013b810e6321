"""Machine configuration for the micro-architectural model.

The preset :func:`i960kb` mirrors the paper's target: a 4-stage
pipelined 32-bit RISC with a 512-byte direct-mapped instruction cache
and no data cache (§V).  All timing figures are our documented
approximations of that flavor of machine — the paper's point (and this
reproduction's) is about how block costs are *used*, not their exact
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.isa import ISSUE_CYCLES, LOAD_USE_STALL, Op


@dataclass(frozen=True)
class Machine:
    """A processor + memory-system model.

    Parameters
    ----------
    icache_bytes, line_bytes:
        Instruction-cache geometry (direct mapped).  ``icache_bytes=0``
        disables the cache (every fetch costs ``miss_penalty=0``).
    miss_penalty:
        Extra cycles to fill one cache line from memory.
    load_use_stall:
        Pipeline bubble when an instruction consumes the result of the
        immediately preceding load.
    issue_cycles:
        Per-opcode effective issue times; defaults to the IR960 table.
    """

    name: str = "i960KB"
    icache_bytes: int = 512
    line_bytes: int = 16
    miss_penalty: int = 8
    load_use_stall: int = LOAD_USE_STALL
    clock_mhz: float = 20.0
    issue_cycles: dict = field(default_factory=lambda: dict(ISSUE_CYCLES))
    #: Optional data cache (§VII future work — the i960KB has none, so
    #: the default is disabled).  Word-granular direct-mapped, read
    #: allocate, write through; only loads pay the miss penalty.
    dcache_words: int = 0
    dcache_line_words: int = 4
    dcache_miss_penalty: int = 0

    def __post_init__(self):
        if self.icache_bytes and self.icache_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.dcache_words and self.dcache_words % self.dcache_line_words:
            raise ValueError(
                "data cache size must be a multiple of its line size")

    @property
    def num_lines(self) -> int:
        if not self.icache_bytes:
            return 0
        return self.icache_bytes // self.line_bytes

    def issue(self, op: Op) -> int:
        return self.issue_cycles[op]

    def line_of(self, addr: int) -> int:
        """Memory line index of a byte address."""
        return addr // self.line_bytes

    def set_of(self, addr: int) -> int:
        """Direct-mapped cache set of a byte address."""
        return self.line_of(addr) % self.num_lines

    @property
    def num_dcache_lines(self) -> int:
        if not self.dcache_words:
            return 0
        return self.dcache_words // self.dcache_line_words

    def fingerprint(self) -> str:
        """A canonical, content-only description of this configuration.

        Two Machine objects with the same timing-relevant parameters
        produce the same string; changing any parameter changes it.
        Used by the analysis engine's on-disk result cache, so results
        computed for one machine are never served for another.
        """
        # Every cache key derives this string, so read each opcode's
        # name once, from the plain ``_name_`` attribute (the ``name``
        # property costs a descriptor call per read).
        issue = ";".join(f"{name}={cycles}" for name, cycles in sorted(
            (op._name_, cycles) for op, cycles in self.issue_cycles.items()))
        return (f"icache={self.icache_bytes}/{self.line_bytes}"
                f"/{self.miss_penalty}"
                f"|dcache={self.dcache_words}/{self.dcache_line_words}"
                f"/{self.dcache_miss_penalty}"
                f"|stall={self.load_use_stall}"
                f"|clock={self.clock_mhz!r}"
                f"|issue={issue}")


def i960kb() -> Machine:
    """The paper's target: Intel i960KB on the QT960 board (§V-VI)."""
    return Machine()


def perfect_cache() -> Machine:
    """An i960KB with an ideal I-cache: no miss penalty anywhere.

    Useful for isolating path-analysis pessimism from cache pessimism.
    """
    return Machine(name="i960KB/perfect-icache", miss_penalty=0)


def i960kb_dcache() -> Machine:
    """A hypothetical i960KB variant with a small data cache.

    The paper's §VII names cache modeling as the main future work;
    this preset exercises our extension of the cost model to data
    accesses: 1 KiB direct-mapped D-cache (256 words, 4-word lines),
    8-cycle fill, read allocate, write through.  The base `ld` issue
    time drops to 1 (a hit), with the interval covered by the per-load
    miss penalty in the worst case.
    """
    from ..codegen.isa import Op

    issue = dict(ISSUE_CYCLES)
    issue[Op.LD] = 1
    return Machine(name="i960KB+D", issue_cycles=issue,
                   dcache_words=256, dcache_line_words=4,
                   dcache_miss_penalty=8)


def dsp3210() -> Machine:
    """AT&T DSP3210 flavor — the paper's §VII port target.

    "In collaboration with AT&T, we have completed a port for the AT&T
    DSP3210 processor.  This is intended for use in the VCOS operating
    system to bound the running times of processes for use in
    scheduling."

    A 32-bit floating-point DSP: single-cycle pipelined FP
    multiply-accumulate, fast on-chip SRAM instead of a cache (so
    fetches are deterministic), slower plain integer multiply than the
    i960's dedicated unit.  As with the i960KB table, the numbers are
    our documented approximation of the flavor.
    """
    from ..codegen.isa import Op

    issue = dict(ISSUE_CYCLES)
    issue.update({
        Op.FADD: 2, Op.FSUB: 2, Op.FMUL: 2, Op.FDIV: 18,
        Op.ITOF: 2, Op.FTOI: 2,
        Op.SQRT: 40, Op.SIN: 120, Op.COS: 120, Op.ATAN: 140,
        Op.EXP: 110, Op.LOG: 110,
        Op.MUL: 8, Op.DIV: 40, Op.REM: 40,
        Op.LD: 2, Op.ST: 1,
    })
    return Machine(name="DSP3210", icache_bytes=0, miss_penalty=0,
                   clock_mhz=33.0, issue_cycles=issue)


def no_cache() -> Machine:
    """Every fetch pays the memory penalty (cache disabled).

    With no cache the best and worst block costs collapse to the same
    deterministic value.
    """
    return Machine(name="i960KB/no-icache", icache_bytes=0, miss_penalty=0)
