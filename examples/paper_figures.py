"""Regenerate the paper's worked figures (Figs. 2-4) from live code.

For each of the three CFG examples in §III-B, compile the snippet,
build the CFG, and print the automatically extracted structural
constraints next to the equation numbers of the paper.  Also emits the
Graphviz DOT for each CFG, so `dot -Tpng` reproduces the figures
visually.

Run with:  python examples/paper_figures.py
"""

from repro.cfg import CallGraph, build_cfgs
from repro.codegen import compile_source
from repro.constraints import base_system

FIG2 = ("""
int f(int p) {
    int q;
    if (p)
        q = 1;
    else
        q = 2;
    return q;
}
""", "Fig. 2: if-then-else (paper eqs. 2-5)")

FIG3 = ("""
int f(int p) {
    int q;
    q = p;
    while (q < 10)
        q++;
    return q;
}
""", "Fig. 3: while loop (paper eqs. 6-9)")

FIG4 = ("""
int total;
void store(int i) { total = total + i; }
void f() {
    int i; int n;
    i = 10;
    store(i);
    n = 2 * i;
    store(n);
}
""", "Fig. 4: function calls via f-edges (paper eqs. 10-13)")


def show(source: str, title: str) -> None:
    print("=" * 60)
    print(title)
    program = compile_source(source)
    cfgs = build_cfgs(program)
    cfg = cfgs["f"]
    print(f"blocks: {sorted(cfg.blocks)}")
    print("edges:  " + ", ".join(str(e) for e in cfg.edges))
    system = base_system(CallGraph(cfgs), "f").constraints()
    print("structural constraints:")
    for constraint in system:
        if constraint.name.startswith("flow f:"):
            print(f"  {constraint}")
    print("inter-procedural (eqs. 12-13):" if cfg.call_edges()
          else "entry (eq. 13):")
    for constraint in system:
        if not constraint.name.startswith("flow"):
            print(f"  {constraint}")
    print()
    print("Graphviz (save and render with `dot -Tpng`):")
    print(cfg.to_dot())
    print()


def main() -> None:
    for source, title in (FIG2, FIG3, FIG4):
        show(source, title)


if __name__ == "__main__":
    main()
