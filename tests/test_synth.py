"""Tightness lab (repro.synth): generator, corpus, worst-case input
search, soundness fuzzing, and the delta-debugging shrinker."""

import json
import random

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.programs import get_benchmark
from repro.synth import (Corpus, CorpusError, Domain, check_program,
                         generate, generate_many, hunt_benchmark,
                         mutate_inputs, path_agreement,
                         random_minic_cases, run_campaign, search_worst,
                         shrink, submit_corpus, witness_targets)
from repro.synth.gen import GRADES, from_ir


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------
class TestDomain:
    def test_clamp_and_sample_stay_in_range(self):
        dom = Domain(-5, 9)
        rng = random.Random(1)
        assert dom.clamp(100) == 9 and dom.clamp(-100) == -5
        assert all(-5 <= dom.sample(rng) <= 9 for _ in range(50))

    def test_array_domain_round_trips_through_json(self):
        dom = Domain(0, 255, size=64)
        again = Domain.from_json(json.loads(json.dumps(dom.to_json())))
        assert again == dom


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_same_program(self):
        a, b = generate(17, grade="small"), generate(17, grade="small")
        assert a.source == b.source
        assert a.digest == b.digest
        assert a.loop_bounds == b.loop_bounds

    def test_different_seeds_differ(self):
        digests = {generate(s, grade="small").digest
                   for s in range(20)}
        assert len(digests) > 15

    @pytest.mark.parametrize("grade", sorted(GRADES))
    def test_every_grade_compiles_and_bounds_enclose(self, grade):
        for prog in generate_many(seed=3, count=4, grade=grade):
            report = prog.analysis().estimate()
            for inputs in prog.sample_inputs(3):
                measured = prog.run(inputs).cycles
                assert report.best <= measured <= report.worst, \
                    prog.source

    def test_loop_bounds_name_real_loops(self):
        prog = generate(5, grade="medium")
        analysis = prog.analysis()
        headers = {(l.function, l.header_line) for l in analysis.loops}
        declared = {(fn, line) for fn, line, _, _ in prog.loop_bounds}
        assert declared == headers

    def test_serialization_round_trip(self):
        prog = generate(9, grade="small")
        again = type(prog).from_dict(prog.to_dict())
        assert again.source == prog.source
        assert again.digest == prog.digest
        assert again.domain == prog.domain

    def test_random_minic_cases_back_compat(self):
        cases = list(random_minic_cases(seed=42, count=5))
        assert len(cases) == 5
        for source, inputs in cases:
            assert "int f(" in source or "void f(" in source
            assert isinstance(inputs, dict)


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
class TestCorpus:
    def test_round_trip_and_idempotence(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        prog = generate(1, grade="tiny")
        digest = corpus.add(prog, meta={"origin": "test"})
        assert digest == prog.digest
        assert corpus.add(prog) == digest      # idempotent
        assert len(corpus) == 1
        assert digest in corpus
        loaded = corpus.get(digest)
        assert loaded.source == prog.source
        assert loaded.loop_bounds == prog.loop_bounds

    def test_tampered_entry_is_rejected(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        digest = corpus.add(generate(2, grade="tiny"))
        path = corpus.root / digest[:2] / f"{digest}.json"
        data = json.loads(path.read_text())
        data["source"] += "\n// tampered\n"
        path.write_text(json.dumps(data))
        with pytest.raises(CorpusError):
            corpus.get(digest)

    def test_iteration_covers_all_ids(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        digests = {corpus.add(p)
                   for p in generate_many(seed=4, count=6,
                                          grade="tiny")}
        assert set(corpus.ids()) == digests
        assert {p.digest for p in corpus} == digests


# ----------------------------------------------------------------------
# Worst-case input search
# ----------------------------------------------------------------------
class TestSearch:
    def test_piksrt_realizes_reference_worst_case(self):
        """Seeded with the curated reverse-sorted input, the search
        must realize the Table III reference measurement exactly."""
        bench = get_benchmark("piksrt")
        result = hunt_benchmark(bench, iterations=8, seed=0)
        assert result.realized == result.reference
        assert result.reference <= result.realized <= result.estimated
        if result.estimated == result.reference:
            # Where the paper bound is exact the search must close
            # the gap completely.
            assert result.realized == result.estimated

    def test_check_data_realizes_reference_worst_case(self):
        bench = get_benchmark("check_data")
        result = hunt_benchmark(bench, iterations=8, seed=0)
        assert result.realized == result.reference
        assert result.realized <= result.estimated

    def test_search_climbs_from_a_bad_seed(self):
        """Starting from the *best*-case input only (sorted array),
        hill-climbing must find something strictly worse."""
        bench = get_benchmark("piksrt")
        analysis = bench.make_analysis()
        sorted_inputs = dict(bench.best_data.globals)
        floor = _run_inputs(bench, sorted_inputs)
        result = search_worst(
            bench.program, bench.entry, {"arr": Domain(-32, 32, 10)},
            analysis, iterations=40, seed=1,
            seed_inputs=(sorted_inputs,), name="piksrt-climb")
        assert result.realized > floor
        # The bad seed's measurement is recorded as the reference,
        # and the search never ends below the best seed it saw.
        assert result.reference == floor
        assert result.realized >= result.seeded >= result.reference

    def test_witness_agreement_scores_matching_paths_higher(self):
        bench = get_benchmark("check_data")
        analysis = bench.make_analysis()
        report = analysis.estimate()
        from repro.obs.explain import explain_bound

        explanation = explain_bound(analysis, report, "worst")
        targets = witness_targets(explanation)
        assert targets, "merged-scope witness should name blocks"
        worst = bench.run(bench.worst_data)
        best = bench.run(bench.best_data)
        cfgs = analysis.cfgs
        from repro.synth.search import observed_blocks

        agree_worst = path_agreement(targets,
                                     observed_blocks(worst, cfgs))
        agree_best = path_agreement(targets,
                                    observed_blocks(best, cfgs))
        assert agree_worst > agree_best

    def test_mutate_inputs_respects_domain(self):
        domain = {"arr": Domain(0, 7, 5), "n": Domain(-3, 3)}
        rng = random.Random(7)
        inputs = {"arr": [0, 1, 2, 3, 4], "n": 0}
        for _ in range(100):
            inputs = mutate_inputs(inputs, domain, rng)
            assert all(0 <= v <= 7 for v in inputs["arr"])
            assert len(inputs["arr"]) == 5
            assert -3 <= inputs["n"] <= 3

    def test_all_benchmarks_have_usable_domains(self):
        """Every routine with inputs declares (or derives) a domain
        the search can sample without crashing the simulator."""
        from repro.synth import benchmark_domain

        for name in ("check_data", "piksrt", "line", "circle",
                     "recon", "fullsearch"):
            bench = get_benchmark(name)
            domain = benchmark_domain(bench)
            assert domain, name
            rng = random.Random(0)
            inputs = {k: d.sample(rng) for k, d in domain.items()}
            measured = _run_inputs(bench, inputs)
            assert measured > 0


def _run_inputs(bench, inputs):
    from repro.sim import run_with_cycles, Dataset

    return run_with_cycles(bench.program, bench.entry,
                           Dataset(globals=inputs)).cycles


# ----------------------------------------------------------------------
# Fuzz campaign
# ----------------------------------------------------------------------
class TestFuzz:
    def test_small_campaign_is_clean(self, tmp_path):
        registry = MetricsRegistry()
        corpus = Corpus(tmp_path / "corpus")
        report = run_campaign(seed=11, count=8, grade="tiny",
                              corpus=corpus, registry=registry)
        assert report.ok, report.render()
        assert report.programs == 8
        assert len(corpus) == 8
        assert registry.value("synth.fuzz.programs") == 8
        assert registry.value("synth.fuzz.sim_runs") > 0
        # Serial and engine analyses both ran per program.
        assert registry.value("synth.fuzz.analyses") == 16

    def test_campaign_emits_span(self):
        tracer = Tracer()
        run_campaign(seed=3, count=2, grade="tiny", engine=False,
                     tracer=tracer)
        names = [s["name"] for s in tracer.records()]
        assert "synth.fuzz" in names

    def test_check_program_flags_broken_worst_bound(self):
        prog = generate(21, grade="tiny")

        def broken(report):
            return report.best, report.best   # collapse to best case

        violation = check_program(prog, engine=False,
                                  bound_fn=broken)
        assert violation is not None
        assert violation.kind == "worst"
        assert violation.measured > violation.worst

    def test_campaign_collects_and_shrinks_violations(self):
        def broken(report):
            return report.best, report.best

        report = run_campaign(seed=5, count=2, grade="tiny",
                              engine=False, bound_fn=broken,
                              max_violations=1)
        assert not report.ok
        violation = report.violations[0]
        assert violation.minimized is not None
        assert violation.shrink_steps > 0
        rendered = report.render()
        assert "VIOLATION" in rendered and "minimized" in rendered


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
class TestShrink:
    def test_minimized_program_still_violates_and_is_1_minimal(self):
        prog = generate(33, grade="small")

        def broken(report):
            return report.best, report.best

        def is_violating(candidate):
            found = check_program(candidate, engine=False,
                                  bound_fn=broken)
            return found is not None and found.kind == "worst"

        assert is_violating(prog)
        minimal, steps = shrink(prog, is_violating)
        assert steps > 0
        assert is_violating(minimal)
        assert len(minimal.source) <= len(prog.source)
        # 1-minimality: no single further reduction still violates.
        from repro.synth.fuzz import _reductions

        for candidate_ir in _reductions(minimal.ir):
            candidate = from_ir(candidate_ir, seed=minimal.seed,
                                grade=minimal.grade,
                                domain=minimal.domain)
            try:
                still = is_violating(candidate)
            except Exception:
                still = False
            assert not still

    def test_shrink_gives_up_cleanly_without_ir(self):
        prog = generate(1, grade="tiny")
        stripped = type(prog)(
            seed=prog.seed, grade=prog.grade, source=prog.source,
            entry=prog.entry, loop_bounds=prog.loop_bounds,
            domain=prog.domain, ir=None)
        minimal, steps = shrink(stripped, lambda c: True)
        assert minimal is stripped and steps == 0


# ----------------------------------------------------------------------
# Corpus -> service feed
# ----------------------------------------------------------------------
class TestServiceFeed:
    def test_submit_corpus_round_trips_bounds(self, tmp_path):
        from repro.service import ServiceClient, ServiceThread

        corpus = Corpus(tmp_path / "corpus")
        progs = list(generate_many(seed=8, count=2, grade="tiny"))
        for prog in progs:
            corpus.add(prog)
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache") as handle, \
                ServiceClient(port=handle.port) as client:
            records = submit_corpus(client, corpus)
        assert len(records) == 2
        by_digest = {r["digest"]: r for r in records}
        for prog in progs:
            serial = prog.analysis().estimate()
            record = by_digest[prog.digest]
            assert record["best"] == serial.best
            assert record["worst"] == serial.worst

    def test_submit_corpus_respects_limit_and_ids(self, tmp_path):
        from repro.service import ServiceClient, ServiceThread

        corpus = Corpus(tmp_path / "corpus")
        digests = [corpus.add(p) for p in
                   generate_many(seed=9, count=3, grade="tiny")]
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache") as handle, \
                ServiceClient(port=handle.port) as client:
            records = submit_corpus(client, corpus,
                                    ids=[digests[0]], limit=5)
        assert [r["digest"] for r in records] == [digests[0]]


# ----------------------------------------------------------------------
# Experiments integration
# ----------------------------------------------------------------------
class TestTightnessTable:
    def test_rows_are_sound_and_render(self):
        from repro.experiments import Experiments, render_tightness

        exp = Experiments(benchmarks={
            "check_data": get_benchmark("check_data"),
            "piksrt": get_benchmark("piksrt"),
        })
        rows = exp.tightness(iterations=6, seed=0)
        assert [r.function for r in rows] == ["check_data", "piksrt"]
        for row in rows:
            assert row.sound
            assert 0 < row.ratio <= 1
        text = render_tightness(rows)
        assert "Realized" in text and "piksrt" in text


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestCLI:
    def test_synth_gen_writes_corpus(self, tmp_path, capsys):
        from repro.cli import main

        corpus_dir = tmp_path / "corpus"
        code = main(["synth", "gen", "--seed", "7", "--count", "3",
                     "--grade", "tiny", "--corpus", str(corpus_dir)])
        assert code == 0
        assert len(Corpus(corpus_dir)) == 3
        assert "3 programs" in capsys.readouterr().out

    def test_synth_fuzz_clean_campaign(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        code = main(["synth", "fuzz", "--seed", "13", "--count", "3",
                     "--grade", "tiny", "--no-engine",
                     "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "soundness: OK" in out
        snapshot = json.loads(metrics.read_text())
        assert "synth.fuzz.programs" in snapshot

    def test_synth_tightness_table(self, capsys):
        from repro.cli import main

        code = main(["synth", "tightness", "check_data",
                     "--iterations", "4"])
        assert code == 0
        assert "check_data" in capsys.readouterr().out

    def test_submit_corpus_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service import ServiceThread

        corpus_dir = tmp_path / "corpus"
        corpus = Corpus(corpus_dir)
        corpus.add(generate(2, grade="tiny"))
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache") as handle:
            code = main(["submit", "--corpus", str(corpus_dir),
                         "--port", str(handle.port)])
        out = capsys.readouterr().out
        assert code == 0
        assert "synth-" in out
