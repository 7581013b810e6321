"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_parser, main

PROGRAM = """
const int N = 8;
int data[8];

int total() {
    int s = 0;
    for (int i = 0; i < N; i++)
        s += data[i];
    return s;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


class TestAnalyze:
    def test_with_explicit_bound(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "8:8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles for total" in out
        assert "first relaxation integral: True" in out

    def test_auto_bounds(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--auto-bounds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto bound: total() line" in out
        assert "[8, 8] (exact)" in out

    def test_missing_bound_reports_loops(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total"])
        err = capsys.readouterr().err
        assert code == 2
        assert "loops still needing --bound" in err

    def test_bound_with_function_and_line(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "total:7:8:8"])
        assert code == 0

    def test_constraint_flag(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "0:8", "--constraint", "x1 = 1"])
        assert code == 0
        assert "sets: 1 solved" in capsys.readouterr().out

    def test_refuted_sets_are_counted(self, source_file, capsys):
        # The entry block runs once, so propagation refutes x1 = 0.
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "0:8", "--constraint", "x1 = 0 | x1 = 1"])
        assert code == 0
        assert ("constraint sets: 2 solved (1 refuted before the LP), "
                "0 pruned of 2") in capsys.readouterr().out

    def test_show_counts(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "8:8", "--show-counts"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total::x1 = 1" in out

    def test_machine_selection(self, source_file, capsys):
        main(["analyze", source_file, "--entry", "total",
              "--bound", "8:8", "--machine", "dsp3210"])
        assert "DSP3210" in capsys.readouterr().out

    def test_bad_entry_is_reported(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "nope",
                     "--bound", "8:8"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_bound_spec(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "1:2:3:4:5"])
        assert code == 1

    def test_cache_split_flag(self, source_file, capsys):
        code = main(["analyze", source_file, "--entry", "total",
                     "--bound", "8:8", "--cache-split"])
        assert code == 0


class TestRun:
    def test_run_with_globals(self, source_file, capsys):
        code = main(["run", source_file, "--entry", "total",
                     "--set", "data=1,2,3,4,5,6,7,8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "return value: 36" in out

    def test_run_with_cycles(self, source_file, capsys):
        code = main(["run", source_file, "--entry", "total", "--cycles"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles (i960KB):" in out

    def test_run_with_args(self, tmp_path, capsys):
        path = tmp_path / "p.c"
        path.write_text("int dbl(int x) { return 2 * x; }")
        code = main(["run", str(path), "--entry", "dbl", "--arg", "21"])
        assert code == 0
        assert "return value: 42" in capsys.readouterr().out

    def test_bad_set_spec(self, source_file, capsys):
        code = main(["run", source_file, "--entry", "total",
                     "--set", "data"])
        assert code == 1


class TestExplainAgainst:
    def _save_explanation(self, tmp_path, capsys) -> str:
        assert main(["explain", "check_data", "--json"]) == 0
        saved = tmp_path / "before.json"
        saved.write_text(capsys.readouterr().out)
        return str(saved)

    def test_self_diff_reports_no_differences(self, tmp_path, capsys):
        saved = self._save_explanation(tmp_path, capsys)
        code = main(["explain", "check_data", "--against", saved])
        out = capsys.readouterr().out
        assert code == 0
        assert "(no differences)" in out
        assert "worst-case bound:" in out

    def test_against_json_delta(self, tmp_path, capsys):
        saved = self._save_explanation(tmp_path, capsys)
        code = main(["explain", "check_data", "--against", saved,
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["unchanged"] is True
        assert payload["bound_delta"] == 0

    def test_against_cross_machine_shows_delta(self, tmp_path, capsys):
        saved = self._save_explanation(tmp_path, capsys)
        code = main(["explain", "check_data", "--against", saved,
                     "--machine", "nocache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "machine differs" in out
        assert "(no differences)" not in out

    def test_against_rejects_non_explain_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        code = main(["explain", "check_data", "--against", str(bogus)])
        assert code == 1
        assert "explain" in capsys.readouterr().err


class TestServiceCli:
    def test_engine_stats_prints_entries_and_quarantine(self, tmp_path,
                                                        capsys):
        from repro.engine import ResultCache
        from repro.programs import get_benchmark

        cache = ResultCache(tmp_path)
        report = get_benchmark("check_data").make_analysis().estimate()
        for key in ("k1", "k2"):
            cache.put_report(key, report)
        torn = cache._path("k1")
        torn.write_text(torn.read_text()[:-2])
        assert cache.get_report("k1") is None
        size = cache._path("k2").stat().st_size
        code = main(["engine", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"cache: {tmp_path}",
            f"entries: 1, {size:,} bytes",
            "quarantined: 1",
        ]

    @pytest.mark.parametrize("flag", ["--cache-max-entries",
                                      "--cache-max-bytes"])
    @pytest.mark.parametrize("command", [["engine", "run", "check_data"],
                                         ["serve"]],
                             ids=["engine-run", "serve"])
    def test_cache_caps_are_usage_errors(self, command, flag, capsys):
        # Parse only: `serve` given a flag it accepted would serve.
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args([*command, flag, "1"])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--clear"]],
                             ids=["stats", "clear"])
    def test_engine_stats_on_a_missing_cache_creates_nothing(
            self, tmp_path, capsys, extra):
        missing = tmp_path / "typo" / "x"
        code = main(["engine", "stats", "--cache-dir", str(missing),
                     *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: no cache at {missing}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["engine", "stats"],
                                         ["chaos", "verify"]],
                             ids=["engine-stats", "chaos-verify"])
    @pytest.mark.parametrize("exists", [False, True],
                             ids=["missing", "not-a-journal"])
    def test_a_missing_journal_is_an_error_and_creates_nothing(
            self, tmp_path, capsys, command, exists):
        # A mistyped --journal must not read as a healthy empty journal
        # (engine stats) or pass the audit (chaos verify), whether the
        # path names nothing or a directory that holds no journal.
        typo = tmp_path / "typo" / "journal"
        if exists:
            typo.mkdir(parents=True)
        code = main([*command, "--journal", str(typo)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: no journal at {typo}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) \
            == ([typo.parent, typo] if exists else [])

    def test_engine_stats_reads_an_existing_journal(self, tmp_path,
                                                    capsys):
        from repro.service import JobJournal, JobSpec

        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001", spec=JobSpec.from_dict(
            {"benchmark": "check_data"}).to_dict())
        journal.close()
        code = main(["engine", "stats", "--journal", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"journal: {tmp_path}\n" in out
        assert "jobs: 1 (queued=1)\n" in out

    def test_submit_round_trip(self, capsys):
        from repro.service import ServiceThread

        with ServiceThread(workers=1, executor="thread") as handle:
            code = main(["submit", "check_data",
                         "--port", str(handle.port)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("check_data: [")

    def test_submit_no_wait_prints_ids(self, capsys):
        from repro.service import ServiceThread

        with ServiceThread(workers=1, executor="thread") as handle:
            code = main(["submit", "check_data", "--no-wait",
                         "--port", str(handle.port)])
            out = capsys.readouterr().out
            assert code == 0
            assert "check_data: submitted as j" in out

    def test_submit_trace_out_writes_the_jobs_spans(self, tmp_path,
                                                    capsys):
        from repro.service import ServiceThread

        path = tmp_path / "job.json"
        with ServiceThread(workers=1, executor="thread") as handle:
            code = main(["submit", "check_data", "--trace-out", str(path),
                         "--port", str(handle.port)])
        assert code == 0
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert doc["repro"]["spans"] == len(spans)
        assert {"service.job", "solve", "set.worst"} \
            <= {e["name"] for e in spans}
        assert (f"check_data: trace written to {path} ({len(spans)} "
                "spans)") in capsys.readouterr().err

    def test_submit_trace_out_names_a_file_per_job(self, tmp_path):
        from repro.service import ServiceThread

        with ServiceThread(workers=1, executor="thread") as handle:
            code = main(["submit", "check_data", "piksrt",
                         "--trace-out", str(tmp_path / "t.json"),
                         "--port", str(handle.port)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["t.check_data.json", "t.piksrt.json"]
        for name in ("check_data", "piksrt"):
            doc = json.loads((tmp_path / f"t.{name}.json").read_text())
            assert doc["repro"]["name"] == name
            assert doc["repro"]["state"] == "done"
            assert doc["repro"]["spans"] > 0

    def test_submit_unreachable_service_fails_cleanly(self, capsys):
        code = main(["submit", "check_data", "--port", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    SERVE = ["serve", "--port", "1"]

    @pytest.mark.parametrize("command, option", [
        pytest.param(SERVE, ["--peers", "127.0.0.1:8788"], id="--peers"),
        pytest.param(SERVE, ["--no-share"], id="--no-share"),
        pytest.param(SERVE, ["--cluster-key", "secret"],
                     id="--cluster-key"),
        pytest.param(SERVE, ["--lease-seconds", "5"],
                     id="--lease-seconds"),
        pytest.param(SERVE, ["--tenants", "tenants.toml"], id="--tenants"),
        pytest.param(["submit", "check_data", "--port", "1"],
                     ["--api-key", "secret"], id="submit--api-key"),
        pytest.param(["chaos", "verify", "--journal", "journal"],
                     ["--tenants", "tenants.toml"],
                     id="chaos-verify--tenants"),
        pytest.param(SERVE, ["--profile-sample-hz", "50"],
                     id="--profile-sample-hz"),
        pytest.param(["analyze", "prog.c", "--entry", "f"],
                     ["--profile", "p.txt"], id="analyze--profile"),
        pytest.param(["submit", "check_data", "--port", "1"],
                     ["--profile"], id="submit--profile"),
        pytest.param(SERVE, ["--slo", "slo.toml"], id="--slo"),
        pytest.param(SERVE, ["--alert-webhook", "http://127.0.0.1:9"],
                     id="--alert-webhook"),
        pytest.param(SERVE, ["--series-interval", "0.25"],
                     id="--series-interval"),
        pytest.param(SERVE, ["--series-retention", "64"],
                     id="--series-retention"),
        pytest.param(SERVE, ["--no-series"], id="--no-series"),
    ])
    def test_serve_has_no_replica_options(self, command, option, capsys,
                                          monkeypatch):
        # Replica, tenancy, profiler, time-series and SLO options are
        # gone: each is rejected while parsing, before a port is
        # bound, a journal read or a source file opened.  A server
        # that got as far as starting fails the test instead of
        # serving on --port 1, which a privileged user can bind.
        from repro.service import AnalysisService

        def started(self):
            pytest.fail("serve accepted the option and started")

        monkeypatch.setattr(AnalysisService, "run", started)
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *option])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option[0]}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["series", "alerts"])
    def test_obs_has_no_series_or_alerts(self, command, capsys):
        # /metricz is the one metrics surface: `obs series` and
        # `obs alerts` are unknown commands, rejected before any
        # connection is made.
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", command, "--port", "1"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_obs_diff_of_two_metricz_scrapes_prints_rates(self, tmp_path,
                                                          capsys):
        # Rates over a window: scrape /metricz, submit a job, scrape
        # again; the diff prints the elapsed time and per-second rates.
        from repro.service import ServiceClient, ServiceThread

        with ServiceThread(workers=1, executor="thread") as handle, \
                ServiceClient(port=handle.port) as client:
            before = client.metricz()
            client.wait(client.submit({"benchmark": "check_data"})["id"])
            after = client.metricz()
        for name, snapshot in (("a.json", before), ("b.json", after)):
            (tmp_path / name).write_text(json.dumps(snapshot))
        code = main(["obs", "diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")])
        out = capsys.readouterr().out
        assert code == 0
        elapsed = after["_ts"]["monotonic"] - before["_ts"]["monotonic"]
        assert elapsed > 0
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines() if line.strip()}
        assert rows["elapsed"] == [f"{elapsed:.3f}s"]
        assert rows["service.jobs.submitted"] \
            == ["+1", f"({1 / elapsed:,.2f}/s)"]


class TestOtherCommands:
    def test_annotate(self, source_file, capsys):
        code = main(["annotate", source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "x1" in out and "total()" in out

    def test_annotate_subset(self, source_file, capsys):
        code = main(["annotate", source_file, "--functions", "total"])
        assert code == 0

    def test_disasm(self, source_file, capsys):
        code = main(["disasm", source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "total:" in out and "ret" in out
