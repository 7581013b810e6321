"""Witness-guided worst-case input search.

Closes the estimate↔reality loop (ROADMAP item 4, after Bundala &
Seshia's systematic execution-time testing): the IPET explainer
already names a witness execution-count vector for the worst-case
bound; this module tries to *realize* it by searching over concrete
input vectors executed on the cycle-accurate simulator.

Strategy — seeded (1+1) hill climbing with boundary seeding:

1. evaluate a seed population: any curated data sets the caller knows
   (e.g. a benchmark's §VI-A worst-case data), the deterministic
   boundary vectors of the input :class:`~repro.synth.gen.Domain`
   (all-lo / all-hi / zero / ascending / descending), and a few random
   vectors;
2. climb from the fittest seed by mutating one input at a time
   (boundary snaps, small steps, array sorts/reversals/swaps),
   accepting a candidate when it improves the score;
3. score lexicographically by **measured cycles** (cold cache, the
   paper's worst-case protocol) and then by **path agreement** — an
   L1 similarity between the observed per-block execution counts and
   the witness vector — so among equal-cycle inputs the search prefers
   the one that walks the predicted path;
4. stop early the moment measured == estimated: the bound is sound,
   so no input can do better.

Every simulator run and search iteration is counted through the
``synth.search.*`` metrics; a ``synth.hunt`` span wraps each search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..constraints.names import split as split_var
from ..errors import ReproError
from ..hw import Machine
from ..obs import NULL_TRACER
from ..obs.explain import explain_bound
from ..sim import Dataset, run_with_cycles
from .gen import Domain, GeneratedProgram


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class SearchResult:
    """Outcome of one worst-case input hunt."""

    name: str
    estimated: int                 # IPET worst-case bound
    realized: int                  # best measured cycles found
    inputs: dict                   # the realizing input vector
    iterations: int                # climb iterations executed
    sim_runs: int                  # total simulator evaluations
    #: Path agreement of the realizing run with the ILP witness
    #: (1.0 == identical block counts), or None when the witness is
    #: context-scoped and per-function counts don't apply.
    agreement: float | None = None
    #: Cycles of the best *seed* before climbing (the baseline the
    #: climb had to beat).
    seeded: int = 0
    #: Cycles measured on the caller's curated data set, when one was
    #: provided (a benchmark's Table III reference measurement).
    reference: int | None = None

    @property
    def ratio(self) -> float:
        """Realized/estimated tightness in [0, 1] (1.0 == exact)."""
        return self.realized / self.estimated if self.estimated else 1.0

    @property
    def exact(self) -> bool:
        return self.realized == self.estimated


# ----------------------------------------------------------------------
# Witness comparison
# ----------------------------------------------------------------------
def witness_targets(explanation) -> dict:
    """``{(function, block_id): count}`` for the witness's block vars.

    Context-scoped witness entries (instance paths like ``task/f1``)
    have no direct per-function observation, so a context-sensitive
    witness yields an empty target set and the search falls back to
    cycles-only scoring.
    """
    targets: dict = {}
    for key, count in explanation.witness.items():
        scope, local = split_var(key)
        if "/" in scope or not local.startswith("x"):
            continue
        try:
            block = int(local[1:])
        except ValueError:
            continue
        targets[(scope, block)] = count
    return targets


def observed_blocks(result, cfgs) -> dict:
    """``{(function, block_id): count}`` from one simulator run."""
    observed: dict = {}
    for function, cfg in cfgs.items():
        for block_id, count in result.block_counts(cfg).items():
            observed[(function, block_id)] = count
    return observed


def path_agreement(targets: dict, observed: dict) -> float | None:
    """L1 similarity between witness and observation, in [0, 1]."""
    if not targets:
        return None
    total = sum(targets.values())
    gap = sum(abs(observed.get(key, 0) - count)
              for key, count in targets.items())
    gap += sum(count for key, count in observed.items()
               if key not in targets)
    return max(0.0, 1.0 - gap / max(1, total))


# ----------------------------------------------------------------------
# Mutation
# ----------------------------------------------------------------------
def _mutate_scalar(value: int, dom: Domain, rng: random.Random) -> int:
    quarter = max(1, (dom.hi - dom.lo) // 4)
    moves = [dom.lo, dom.hi, 0, value + 1, value - 1,
             value + quarter, value - quarter,
             rng.randint(dom.lo, dom.hi)]
    return dom.clamp(rng.choice(moves))


def _mutate_array(values: list, dom: Domain,
                  rng: random.Random) -> list:
    out = list(values)
    kind = rng.choice(["point", "point", "point", "sort", "rsort",
                       "reverse", "fill_lo", "fill_hi", "swap"])
    if kind == "point":
        i = rng.randrange(len(out))
        out[i] = _mutate_scalar(out[i], dom, rng)
    elif kind == "sort":
        out.sort()
    elif kind == "rsort":
        out.sort(reverse=True)
    elif kind == "reverse":
        out.reverse()
    elif kind == "fill_lo":
        out = [dom.lo] * len(out)
    elif kind == "fill_hi":
        out = [dom.hi] * len(out)
    else:
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    return out


def mutate_inputs(inputs: dict, domain: dict,
                  rng: random.Random) -> dict:
    """One neighbor: mutate a single domain-covered input."""
    names = [name for name in inputs if name in domain]
    if not names:
        return dict(inputs)
    out = dict(inputs)
    name = rng.choice(names)
    dom = domain[name]
    if dom.is_array and isinstance(out[name], list):
        out[name] = _mutate_array(out[name], dom, rng)
    else:
        out[name] = _mutate_scalar(out[name], dom, rng)
    return out


def boundary_vectors(domain: dict) -> list[dict]:
    """Deterministic corner vectors for an arbitrary domain dict."""
    def vector(fill) -> dict:
        out = {}
        for name, dom in domain.items():
            if dom.is_array:
                out[name] = [dom.clamp(fill(dom, i, dom.size))
                             for i in range(dom.size)]
            else:
                out[name] = dom.clamp(fill(dom, 0, 1))
        return out

    ramp = lambda dom, i, n: dom.lo + (
        (dom.hi - dom.lo) * i // max(1, n - 1))
    return [
        vector(lambda dom, i, n: dom.lo),
        vector(lambda dom, i, n: dom.hi),
        vector(lambda dom, i, n: 0),
        vector(ramp),
        vector(lambda dom, i, n: ramp(dom, n - 1 - i, n)),
    ]


# ----------------------------------------------------------------------
# The search itself
# ----------------------------------------------------------------------
def search_worst(program, entry: str, domain: dict, analysis,
                 report=None, *, machine: Machine | None = None,
                 iterations: int = 32, seed: int = 0,
                 seed_inputs: tuple = (), args: tuple = (),
                 name: str = "", registry=None,
                 tracer=None) -> SearchResult:
    """Hunt for inputs realizing `analysis`'s worst-case bound.

    `domain` maps mutable global names to :class:`Domain`; globals
    outside the domain are carried through from the seed unchanged.
    `seed_inputs` are curated candidate dicts evaluated first — the
    first one's measurement is reported as ``reference``.
    """
    tracer = tracer or NULL_TRACER
    if report is None:
        report = analysis.estimate()
    estimated = report.worst
    explanation = explain_bound(analysis, report, "worst")
    targets = witness_targets(explanation)
    rng = random.Random(seed)
    runs = [0]

    def evaluate(inputs: dict):
        runs[0] += 1
        if registry is not None:
            registry.counter("synth.search.sim_runs").inc()
        try:
            result = run_with_cycles(
                program, entry, Dataset(globals=dict(inputs),
                                        args=args),
                machine=machine, flush=True)
        except ReproError:
            return None, None
        agreement = path_agreement(
            targets, observed_blocks(result, analysis.cfgs))
        return result.cycles, agreement

    with tracer.span("synth.hunt", cat="synth", target=name,
                     estimated=estimated) as span:
        # -- seed population ------------------------------------------
        seeds = [dict(inputs) for inputs in seed_inputs]
        seeds += boundary_vectors(domain)
        for _ in range(3):
            seeds.append({nm: dom.sample(rng)
                          for nm, dom in domain.items()})
        # Globals the domain doesn't cover keep the curated values.
        if seed_inputs:
            base = dict(seed_inputs[0])
            for vector in seeds[len(seed_inputs):]:
                for nm, value in base.items():
                    vector.setdefault(nm, value)

        best_inputs, best_cycles, best_agree = None, -1, None
        reference = None
        for index, vector in enumerate(seeds):
            cycles, agreement = evaluate(vector)
            if cycles is None:
                continue
            if index == 0 and seed_inputs:
                reference = cycles
            if (cycles, agreement or 0.0) > (best_cycles,
                                             best_agree or 0.0):
                best_inputs, best_cycles, best_agree = \
                    vector, cycles, agreement
        if best_inputs is None:
            raise ReproError(
                f"worst-case search for {name or entry!r}: every seed "
                "input failed to simulate")
        seeded = best_cycles

        # -- hill climb -----------------------------------------------
        steps = 0
        for steps in range(1, iterations + 1):
            if best_cycles >= estimated:
                steps -= 1         # bound realized: nothing can beat it
                break
            if registry is not None:
                registry.counter("synth.search.iterations").inc()
            candidate = mutate_inputs(best_inputs, domain, rng)
            cycles, agreement = evaluate(candidate)
            if cycles is None:
                continue
            if (cycles, agreement or 0.0) > (best_cycles,
                                             best_agree or 0.0):
                best_inputs, best_cycles, best_agree = \
                    candidate, cycles, agreement

        result = SearchResult(
            name=name or entry, estimated=estimated,
            realized=best_cycles, inputs=best_inputs,
            iterations=steps, sim_runs=runs[0],
            agreement=best_agree, seeded=seeded, reference=reference)
        span.set("realized", result.realized)
        span.set("sim_runs", result.sim_runs)
        if registry is not None:
            registry.histogram("synth.search.tightness").observe(
                result.ratio)
    return result


# ----------------------------------------------------------------------
# Convenience fronts
# ----------------------------------------------------------------------
def benchmark_domain(bench) -> dict:
    """Input :class:`Domain` map for a Table-I benchmark.

    Uses the benchmark's declared ``input_domain`` when present and
    derives ranges from the curated best/worst data sets for anything
    left undeclared.
    """
    out: dict = {}
    for name, spec in (bench.input_domain or {}).items():
        out[name] = Domain(*spec)
    for dataset in (bench.best_data, bench.worst_data):
        for name, value in dataset.globals.items():
            if name in out:
                continue
            if isinstance(value, list):
                flat = [int(v) for v in value]
                peers = dataset is bench.best_data \
                    and bench.worst_data.globals.get(name)
                if isinstance(peers, list):
                    flat += [int(v) for v in peers]
                out[name] = Domain(min(flat), max(flat), len(value))
            else:
                values = [int(value)]
                peer = (bench.worst_data if dataset is bench.best_data
                        else bench.best_data).globals.get(name)
                if peer is not None and not isinstance(peer, list):
                    values.append(int(peer))
                out[name] = Domain(min(values), max(values))
    return out


def hunt_benchmark(bench, machine: Machine | None = None, *,
                   iterations: int = 24, seed: int = 0,
                   report=None, registry=None,
                   tracer=None) -> SearchResult:
    """Worst-case input hunt for one Table-I benchmark.

    The curated worst-case data set seeds the search (its measurement
    doubles as the Table III reference), and both curated data sets'
    argument tuples must agree (they do for the whole suite).
    """
    analysis = bench.make_analysis(machine=machine)
    return search_worst(
        bench.program, bench.entry, benchmark_domain(bench), analysis,
        report=report, machine=machine, iterations=iterations,
        seed=seed,
        seed_inputs=(dict(bench.worst_data.globals),
                     dict(bench.best_data.globals)),
        args=bench.worst_data.args, name=bench.name,
        registry=registry, tracer=tracer)


def hunt_generated(prog: GeneratedProgram,
                   machine: Machine | None = None, *,
                   iterations: int = 24, seed: int = 0, report=None,
                   registry=None, tracer=None) -> SearchResult:
    """Worst-case input hunt for a generated program."""
    analysis = prog.analysis(machine=machine)
    return search_worst(
        prog.program, prog.entry, prog.domain, analysis,
        report=report, machine=machine, iterations=iterations,
        seed=seed, seed_inputs=(), name=prog.name,
        registry=registry, tracer=tracer)
