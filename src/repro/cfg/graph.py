"""Control-flow graph data structures.

The CFG follows the paper's conventions (Figs. 2-4):

* every basic block ``B_i`` carries a count variable ``x_i``;
* every edge ``d_j`` carries a count variable, including a pseudo
  *entry* edge into the first block (the paper's ``d_1``) and an *exit*
  edge out of every returning block;
* a function call terminates its basic block and the edge to the next
  block is an *f-edge* (``f_k``) that simultaneously represents the
  fall-through flow and the number of times the callee is invoked from
  that site.

Block ids are 1-based in address order, so block ``i`` is the paper's
``B_i`` / ``x_i`` for straight-line-structured code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen import FunctionCode, Instruction


@dataclass
class BasicBlock:
    """A maximal single-entry single-exit instruction sequence."""

    id: int                    # 1-based, address order (paper's B_i)
    function: str
    start: int                 # global instruction index of the leader
    end: int                   # exclusive global instruction index
    instrs: list[Instruction] = field(default_factory=list)

    @property
    def var(self) -> str:
        """ILP variable name for this block's execution count."""
        return f"x{self.id}"

    @property
    def lines(self) -> set[int]:
        return {i.line for i in self.instrs if i.line}

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return (f"B{self.id}({self.function}, "
                f"instrs {self.start}..{self.end - 1})")


@dataclass
class Edge:
    """A flow edge with its count variable.

    ``src is None`` marks the function-entry pseudo edge; ``dst is
    None`` marks an exit edge (out of a returning block).  ``callee``
    is set on f-edges and names the called function.
    """

    name: str                  # "d3" or "f1"
    src: int | None
    dst: int | None
    callee: str | None = None
    taken: bool | None = None  # True for branch-taken, False for fall-through

    @property
    def is_call(self) -> bool:
        return self.callee is not None

    @property
    def is_exit(self) -> bool:
        return self.dst is None

    def __repr__(self) -> str:
        src = "entry" if self.src is None else f"B{self.src}"
        dst = "exit" if self.dst is None else f"B{self.dst}"
        call = f" call {self.callee}" if self.callee else ""
        return f"{self.name}: {src}->{dst}{call}"


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, function: FunctionCode):
        self.function = function
        self.name = function.name
        self.blocks: dict[int, BasicBlock] = {}
        self.edges: list[Edge] = []
        self.entry_block = 1
        # Each block's in- and out-edges, in the order add_edge got
        # them (the entry edge is None's out-edge); queries return
        # these lists, which callers must not mutate.
        self._in: dict[int | None, list[Edge]] = {}
        self._out: dict[int | None, list[Edge]] = {}

    # -- construction helpers (used by the builder) ---------------------
    def add_block(self, block: BasicBlock) -> None:
        self.blocks[block.id] = block

    def add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)

    # -- queries ----------------------------------------------------------
    @property
    def entry_edge(self) -> Edge:
        entry = self._out.get(None)
        if not entry:
            raise KeyError("CFG has no entry edge")  # pragma: no cover
        return entry[0]

    def in_edges(self, block_id: int) -> list[Edge]:
        return self._in.get(block_id, [])

    def out_edges(self, block_id: int) -> list[Edge]:
        return self._out.get(block_id, [])

    def call_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.is_call]

    def exit_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.is_exit]

    def successors(self, block_id: int) -> list[int]:
        return [e.dst for e in self.out_edges(block_id) if e.dst is not None]

    def predecessors(self, block_id: int) -> list[int]:
        return [e.src for e in self.in_edges(block_id) if e.src is not None]

    def block_at_line(self, line: int) -> list[BasicBlock]:
        """Blocks containing code generated from source `line`."""
        return [b for b in self.blocks.values() if line in b.lines]

    def block_of_instruction(self, index: int) -> BasicBlock:
        for block in self.blocks.values():
            if block.start <= index < block.end:
                return block
        raise KeyError(f"no block contains instruction {index}")

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the CFG (blocks, d/f-edges)."""
        lines = [f'digraph "{self.name}" {{',
                 "  node [shape=box, fontname=monospace];"]
        for block in sorted(self.blocks.values(), key=lambda b: b.id):
            first = block.instrs[0].line
            label = f"B{block.id}\\nline {first}" if first else f"B{block.id}"
            lines.append(f'  B{block.id} [label="{label}"];')
        lines.append('  entry [shape=plaintext];')
        lines.append('  exit [shape=plaintext];')
        for edge in self.edges:
            src = "entry" if edge.src is None else f"B{edge.src}"
            dst = "exit" if edge.dst is None else f"B{edge.dst}"
            style = ', style=dashed' if edge.is_call else ""
            label = edge.name + (f" ({edge.callee})" if edge.callee else "")
            lines.append(f'  {src} -> {dst} [label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"CFG({self.name}, {len(self.blocks)} blocks, "
                f"{len(self.edges)} edges)")
