"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scan_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.scale == 20000
        assert args.seed == 7

    def test_campaign_weeks(self):
        args = build_parser().parse_args(["campaign", "--weeks", "3"])
        assert args.weeks == 3

    def test_classify_set(self):
        args = build_parser().parse_args(["classify", "--set", "Adult"])
        assert args.set == "Adult"

    def test_audit_requires_resolver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])

    def test_pipeline_shards_default(self):
        args = build_parser().parse_args(["classify"])
        assert args.pipeline_shards == 1

    def test_pipeline_shards_override(self):
        args = build_parser().parse_args(
            ["classify", "--pipeline-shards", "4"])
        assert args.pipeline_shards == 4

    @pytest.mark.parametrize("argv", [
        ["scan", "--pipeline-shards", "2"],
        ["campaign", "--pipeline-shards", "2"],
        ["fingerprint", "--pipeline-shards", "2"],
        ["snoop", "--pipeline-shards", "2"],
        ["audit", "203.0.113.7", "--shards", "2"],
        ["audit", "203.0.113.7", "--retries", "1"],
        ["classify", "--checkpoint-dir", "/tmp/c"],
    ], ids=" ".join)
    def test_flags_a_command_does_not_read_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestKnobValidation:
    """Nonsensical knob values must die at the parser (or with a clear
    error), not as an arbitrary traceback mid-scan."""

    NONPOSITIVE = [
        ("scan", "--probe-batch", "0"),
        ("scan", "--probe-batch", "-5"),
        ("scan", "--probe-batch", "many"),
        ("scan", "--node-cache", "0"),
        ("scan", "--node-cache", "-1"),
        ("scan", "--shards", "0"),
        ("scan", "--shards", "-2"),
        # scan runs no pipeline and no longer takes the flag.
        ("classify", "--pipeline-shards", "0"),
        ("scan", "--scale", "0"),
        ("scan", "--scale", "-20000"),
    ]

    @pytest.mark.parametrize("command,flag,value", NONPOSITIVE,
                             ids=["%s-%s" % row[1:] for row in NONPOSITIVE])
    def test_nonpositive_knobs_rejected(self, command, flag, value,
                                        capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "is not an integer" in err

    def test_positive_knobs_accepted(self):
        args = build_parser().parse_args(
            ["scan", "--probe-batch", "128", "--node-cache", "16",
             "--shards", "3"])
        assert (args.probe_batch, args.node_cache, args.shards) \
            == (128, 16, 3)

    @pytest.mark.parametrize("flag,value", [
        ("--retries", "-3"),
        ("--retries", "1.5"),
        ("--retries", "lots"),
        ("--probe-timeout", "0"),
        ("--probe-timeout", "-1"),
        ("--probe-timeout", "nan"),
        ("--probe-timeout", "soon"),
        ("--backoff", "0.5"),
        ("--backoff", "0"),
        ("--backoff", "-2"),
        ("--backoff", "nan"),
        ("--backoff", "fast"),
        ("--max-pps", "-5"),
        ("--max-pps", "0"),
        ("--max-pps", "nan"),
        ("--max-pps", "fast"),
        ("--max-pps", "inf"),
        ("--max-pps", "1e400"),
        ("--probe-timeout", "inf"),
        ("--backoff", "inf"),
    ])
    def test_nonsense_probe_knobs_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scan", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    @pytest.mark.parametrize("command,flag,value", [
        ("campaign", "--weeks", "0"),
        ("fullstudy", "--weeks", "-1"),
        ("fullstudy", "--snoop-sample", "0"),
        ("snoop", "--sample", "0"),
        ("snoop", "--hours", "-6"),
    ])
    def test_nonpositive_run_lengths_rejected(self, command, flag, value,
                                              capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_retries_zero_is_valid(self):
        # Zero retries is the single-probe fast path, not nonsense.
        args = build_parser().parse_args(
            ["scan", "--retries", "0", "--probe-timeout", "2.5"])
        assert (args.retries, args.probe_timeout) == (0, 2.5)

    def test_backoff_of_one_is_valid(self):
        # Constant retransmission timeouts are the boundary, not nonsense.
        args = build_parser().parse_args(["scan", "--backoff", "1"])
        assert args.backoff == 1.0

    @pytest.mark.parametrize("flag,value", [
        ("--audit-fraction", "0"),
        ("--audit-fraction", "1"),
        ("--audit-fraction", "1.5"),
        ("--audit-fraction", "-0.1"),
        ("--drift-budget", "0"),
        ("--drift-budget", "1"),
        ("--drift-budget", "nan"),
        ("--full-sweep-every", "0"),
        ("--full-sweep-every", "-4"),
    ])
    def test_nonsense_delta_knobs_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["campaign", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    def test_delta_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--delta", "--audit-fraction", "0.1",
             "--drift-budget", "0.25", "--full-sweep-every", "6"])
        assert args.delta is True
        assert (args.audit_fraction, args.drift_budget,
                args.full_sweep_every) == (0.1, 0.25, 6)

    def test_streaming_flags_parse(self):
        args = build_parser().parse_args(
            ["scan", "--stream-results", "--lazy-population"])
        assert args.stream_results and args.lazy_population

    def test_overflowing_retry_schedule_is_one_error_line(self, capsys):
        # Each knob is finite; backoff ** retries is not.
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--scale", "10000000", "--retries", "2",
                  "--probe-timeout", "1e-300", "--backoff", "1e300"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err

    def test_shards_beyond_targets_rejected(self, capsys):
        # A 1:10000000 world keeps only a couple of scan targets;
        # thousands of shards cannot possibly each get one.
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--scale", "10000000", "--shards", "100000"])
        message = str(exc.value)
        assert "exceeds" in message and "targets" in message


SMALL = ["--scale", "120000", "--seed", "3"]


class TestCommands:
    def test_scan(self, capsys):
        assert main(["scan"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "NOERROR" in out
        assert "probes sent" in out

    def test_world_is_frozen_for_the_command_only(self, monkeypatch):
        import gc
        from repro import cli
        frozen = []
        sweep = cli._sweep
        monkeypatch.setattr(cli, "_sweep", lambda run: (
            frozen.append(gc.get_freeze_count()) or sweep(run)))
        assert main(["scan"] + SMALL) == 0
        assert frozen[0] > 0
        assert gc.get_freeze_count() == 0

    def test_campaign(self, capsys):
        assert main(["campaign", "--weeks", "2"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "decline ratio" in out
        assert "surviving" in out

    def test_campaign_delta(self, capsys):
        assert main(["campaign", "--weeks", "4", "--delta"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "decline ratio" in out
        assert "delta:" in out and "carried" in out

    def test_fullstudy_honours_its_scan_flags(self, monkeypatch, capsys):
        # Every flag below used to be parsed by fullstudy and dropped;
        # the study's campaign must now be the one 'campaign' runs.
        import pickle
        from repro.scenario import Scenario
        campaigns = []
        new_campaign = Scenario.new_campaign

        def spy(scenario, *args, **kwargs):
            campaigns.append(new_campaign(scenario, *args, **kwargs))
            return campaigns[-1]

        monkeypatch.setattr(Scenario, "new_campaign", spy)
        flags = ["--weeks", "1", "--retries", "2", "--probe-timeout", "9",
                 "--probe-batch", "64", "--stream-results",
                 "--faults", "none,loss_rate=0.3"] + SMALL
        assert main(["fullstudy", "--snoop-sample", "3"] + flags) == 0
        assert main(["campaign"] + flags) == 0
        study, campaign = campaigns
        assert study.last().result.retransmissions > 0
        assert study.options.as_meta() == campaign.options.as_meta()
        assert (study.options.retries, study.options.probe_timeout,
                study.options.probe_batch, study.options.stream_results) \
            == (2, 9.0, 64, True)
        assert pickle.dumps(study.last().result) == \
            pickle.dumps(campaign.last().result)

    def test_classify_rejects_unknown_set(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--set", "Nope"] + SMALL)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'Nope'" in err
        assert "'Adult', 'Alexa'" in err and "'Tracking'" in err

    def test_classify(self, capsys):
        assert main(["classify", "--set", "Dating"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "legitimate" in out
        assert "classified" in out

    def test_classify_sharded_matches_sequential(self, capsys):
        assert main(["classify", "--set", "Dating"] + SMALL) == 0
        sequential = capsys.readouterr().out
        assert main(["classify", "--set", "Dating",
                     "--pipeline-shards", "2"] + SMALL) == 0
        assert capsys.readouterr().out == sequential

    def test_audit_falls_back_to_real_resolver(self, capsys):
        assert main(["audit", "203.0.113.7"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_snoop(self, capsys):
        assert main(["snoop", "--sample", "20", "--hours", "6"]
                    + SMALL) == 0
        out = capsys.readouterr().out
        assert "snooped resolvers" in out

    def test_fingerprint(self, capsys):
        assert main(["fingerprint"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "CHAOS responders" in out      # Table 3
        assert "TCP responders" in out        # Table 4


class TestSession:
    """The run lifecycle is `_session`'s, so every study command gets
    all of it — not the subset its body happened to type."""

    @pytest.mark.parametrize("argv", [
        ["scan"],
        ["campaign", "--weeks", "1"],
        ["fingerprint"],
        ["snoop", "--sample", "5", "--hours", "2"],
        ["classify", "--set", "Dating"],
        ["audit", "203.0.113.7"],
        ["fullstudy", "--weeks", "1", "--snoop-sample", "3"],
    ], ids=lambda argv: argv[0])
    def test_perf_and_trace_are_honoured(self, argv, tmp_path, capsys):
        from repro.obs import read_trace, validate_trace
        path = str(tmp_path / "trace.jsonl")
        assert main(argv + SMALL + ["--perf", "--trace-out", path]) == 0
        assert "[perf %s]" % argv[0] in capsys.readouterr().err
        records = read_trace(path)
        assert validate_trace(records)["spans"] > 0
        head = records[0]
        assert (head["command"], head["scale"], head["seed"]) == \
            (argv[0], 120000, 3)
        assert head["options"]["shards"] == 1


class TestCheckpointCli:
    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint-dir", "/tmp/c", "--resume"])
        assert args.checkpoint_dir == "/tmp/c"
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--weeks", "1", "--resume"] + SMALL)

    def test_reopening_a_used_directory_without_resume_refused(
            self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        run = ["campaign", "--weeks", "1", "--checkpoint-dir", ckpt] + SMALL
        assert main(run) == 0
        capsys.readouterr()
        # A one-line error and exit 2, not a traceback.
        assert main(run) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: checkpoint directory")
        assert "already holds a run" in error and "--resume" in error

    def test_rejected_invocation_leaves_no_meta_behind(self, tmp_path):
        import os
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--weeks", "1", "--shards", "9999999",
                  "--checkpoint-dir", ckpt] + SMALL)
        assert "exceeds" in str(exc.value)
        assert not os.path.exists(os.path.join(ckpt, "meta.json"))

    def test_stale_meta_without_a_journal_is_rewritten(self, tmp_path,
                                                       capsys):
        # What a run stopped before its first commit leaves behind must
        # not decide what the next run's --resume is compared against.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "meta.json").write_text(
            '{"command": "campaign", "options": {"shards": 9999999}}')
        run = ["campaign", "--weeks", "1",
               "--checkpoint-dir", str(ckpt)] + SMALL
        assert main(run) == 0
        assert main(run + ["--resume"]) == 0

    def test_resume_with_other_weeks_names_the_key_that_differs(
            self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        run = ["campaign", "--checkpoint-dir", ckpt] + SMALL
        assert main(run + ["--weeks", "2"]) == 0
        capsys.readouterr()
        assert main(run + ["--weeks", "3", "--resume"]) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: checkpoint meta mismatch")
        # Only what differs is named — not both meta dicts.
        assert "weeks: 2 -> 3" in error
        assert "seed" not in error and "scale" not in error

    @pytest.mark.parametrize("changed", [
        ["--retries", "2"], ["--probe-batch", "64"], ["--stream-results"],
        ["--lazy-population"], []],
        ids=lambda changed: "".join(changed) or "no--delta")
    def test_resume_under_different_knobs_is_refused(
            self, tmp_path, capsys, changed):
        # Crashed under --delta; a resume that differs in any scan knob
        # (or drops --delta) must be rejected, not silently diverge.
        from repro.faults import CRASH_EXIT_CODE
        ckpt = str(tmp_path / "ckpt")
        run = ["campaign", "--weeks", "3", "--checkpoint-dir", ckpt,
               "--faults", "none,crash=week:1"] + SMALL
        assert main(run + ["--delta"]) == CRASH_EXIT_CODE
        capsys.readouterr()
        assert main(run + ["--resume"] + (changed + ["--delta"]
                                          if changed else [])) == 2
        assert "error: checkpoint meta mismatch" in capsys.readouterr().err
        assert main(run + ["--resume", "--delta"]) == 0

    def test_campaign_crash_then_resume_matches_plain_run(
            self, tmp_path, capsys):
        import os
        from repro.faults import CRASH_EXIT_CODE
        assert main(["campaign", "--weeks", "2"] + SMALL) == 0
        plain = capsys.readouterr().out
        ckpt = str(tmp_path / "ckpt")
        trace = str(tmp_path / "crashed.jsonl")
        faulted = SMALL + ["--faults", "none,crash=week:0"]
        assert main(["campaign", "--weeks", "2", "--checkpoint-dir", ckpt,
                     "--trace-out", trace] + faulted) == CRASH_EXIT_CODE
        # The crash path still exports the trace and the provenance.
        crashed = capsys.readouterr().err
        assert "injected crash" in crashed
        assert "[resume provenance]" in crashed
        assert main(["trace", trace, "--validate-only"]) == 0
        capsys.readouterr()
        assert main(["campaign", "--weeks", "2", "--checkpoint-dir",
                     ckpt, "--resume"] + faulted) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "[resume provenance]" in captured.err
        assert os.path.exists(os.path.join(ckpt, "provenance.json"))

    def test_fullstudy_crash_resume_writes_identical_report(
            self, tmp_path, capsys):
        import os
        from repro.faults import CRASH_EXIT_CODE
        args = ["fullstudy", "--weeks", "1", "--snoop-sample", "5"] + SMALL
        plain_out = str(tmp_path / "plain.md")
        # Baseline under the same (inert) fault profile: installing any
        # plan changes which salted draws the network makes, so the fair
        # comparison is crash+resume vs uninterrupted with equal faults.
        assert main(args + ["--faults", "none", "--out", plain_out]) == 0
        ckpt = str(tmp_path / "ckpt")
        resumed_out = str(tmp_path / "resumed.md")
        faulted = ["--faults", "none,crash=study:fingerprint",
                   "--checkpoint-dir", ckpt, "--out", resumed_out]
        trace = str(tmp_path / "crashed.jsonl")
        assert main(args + faulted + ["--trace-out", trace]) == \
            CRASH_EXIT_CODE
        assert "[resume provenance]" in capsys.readouterr().err
        assert main(["trace", trace, "--validate-only"]) == 0
        # Atomic --out: the crashed run must not leave a torn report.
        assert not os.path.exists(resumed_out)
        assert main(args + faulted + ["--resume"]) == 0
        with open(plain_out) as handle:
            plain = handle.read()
        with open(resumed_out) as handle:
            resumed = handle.read()
        assert resumed == plain


class TestTraceCliErrors:
    """'repro trace' must die with one clear line — never a traceback —
    whatever is wrong with the file it was pointed at."""

    def test_missing_file_is_a_one_line_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid trace:")
        assert "Traceback" not in err

    def test_binary_garbage_is_a_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"\x93NUMPY\x01\x00\xff\xfe" * 64)
        assert main(["trace", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid trace:")
        assert "not a JSONL text file" in err

    def test_non_json_text_is_a_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "notes.txt")
        with open(path, "w") as handle:
            handle.write("this is not a trace\n")
        assert main(["trace", path]) == 2
        assert "invalid trace" in capsys.readouterr().err


class TestObserveKnobValidation:
    """The observatory's knobs die at the parser like every other knob."""

    @pytest.mark.parametrize("flag,value", [
        ("--ingest-poll", "0"),
        ("--ingest-poll", "-2"),
        ("--ingest-poll", "nan"),
        ("--ingest-poll", "often"),
        ("--ingest-poll", "inf"),
    ])
    def test_bad_ingest_poll_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "ingest", "--from", "/tmp/c",
                 "--store-dir", "/tmp/s", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    @pytest.mark.parametrize("value", [
        "8053",             # no host
        ":8053",            # empty host
        "127.0.0.1:zero",   # non-integer port
        "127.0.0.1:70000",  # out of range
        "127.0.0.1:-1",
    ])
    def test_bad_listen_endpoint_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "serve", "--store-dir", "/tmp/s",
                 "--listen", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "host:port" in err or "port" in err

    def test_bad_store_dir_rejected(self, tmp_path, capsys):
        plain_file = tmp_path / "file.txt"
        plain_file.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "stats", "--store-dir", str(plain_file)])
        assert exc.value.code == 2
        assert "not a directory" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["observe", "stats", "--store-dir", "  "])

    @pytest.mark.parametrize("value", ["1e10", "9223372036"])
    def test_ingest_poll_beyond_the_sleep_clock_rejected(self, value,
                                                         capsys):
        """A finite interval ``time.sleep`` cannot wait (above
        ``threading.TIMEOUT_MAX``, or close enough that the deadline
        overflows) dies at the parser, not in the first poll."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "serve", "--store-dir", "/tmp/s",
                 "--ingest-poll", value])
        assert exc.value.code == 2
        assert "--ingest-poll: must be at most" in capsys.readouterr().err

    def test_good_knobs_parse(self):
        args = build_parser().parse_args(
            ["observe", "serve", "--store-dir", "/tmp/s",
             "--listen", "0.0.0.0:0", "--ingest-poll", "0.5"])
        assert args.listen == ("0.0.0.0", 0)
        assert args.ingest_poll == 0.5
        assert args.store_dir == "/tmp/s"

    def test_store_dir_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["observe", "stats"])
        assert exc.value.code == 2


class TestObserveCli:
    def test_ingest_then_query_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        store = str(tmp_path / "store")
        assert main(["campaign", "--weeks", "2",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        capsys.readouterr()
        trace = str(tmp_path / "ingest.jsonl")
        assert main(["observe", "ingest", "--from", ckpt, "--store-dir",
                     store, "--no-geo", "--trace-out", trace]) == 0
        captured = capsys.readouterr()
        assert "2 weeks" in captured.err
        from repro.obs import read_trace, validate_trace
        records = read_trace(trace)
        assert validate_trace(records)["spans"] > 0
        assert records[0]["command"] == "observe-ingest"
        assert main(["observe", "stats", "--store-dir", store]) == 0
        import json
        stats = json.loads(capsys.readouterr().out)
        assert stats["weeks"] == 2 and stats["resolvers"] > 0
        assert main(["observe", "survival", "--store-dir", store]) == 0
        assert "week  surviving" in capsys.readouterr().out
        # Second ingest pass: recognized no-op.
        assert main(["observe", "ingest", "--from", ckpt,
                     "--store-dir", store, "--no-geo"]) == 0
        assert "nothing new" in capsys.readouterr().err

    def test_lookup_unknown_resolver_fails(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        store = str(tmp_path / "store")
        assert main(["campaign", "--weeks", "1",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        assert main(["observe", "ingest", "--from", ckpt,
                     "--store-dir", store, "--no-geo"]) == 0
        capsys.readouterr()
        assert main(["observe", "lookup", "--store-dir", store,
                     "203.0.113.254"]) == 1
        assert "unknown resolver" in capsys.readouterr().err

    def test_query_before_ingest_is_a_clear_error(self, tmp_path,
                                                   capsys):
        assert main(["observe", "stats",
                     "--store-dir", str(tmp_path / "empty")]) == 2
        assert "repro observe ingest" in capsys.readouterr().err

    def test_format_1_store_is_a_one_line_error(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "MANIFEST.json").write_text(
            '{"format": 1, "generation": 1, "weeks": {}}\n')
        assert main(["observe", "stats", "--store-dir", str(store)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(store / "MANIFEST.json") in lines[0]
        assert "format 1" in lines[0] and "re-ingest" in lines[0]

    def test_watch_with_an_unsleepable_poll_is_a_usage_error(
            self, tmp_path, capsys):
        """``observe ingest --watch --ingest-poll 1e10`` on a real
        journal exits 2 with one argparse line before ingesting anything;
        it used to ingest, then die in ``time.sleep`` with OverflowError."""
        ckpt = str(tmp_path / "ckpt")
        store = tmp_path / "store"
        assert main(["campaign", "--weeks", "1",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["observe", "ingest", "--from", ckpt, "--store-dir",
                  str(store), "--no-geo", "--watch", "--ingest-poll",
                  "1e10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].endswith(
            "argument --ingest-poll: must be at most 4611686018 seconds "
            "(got '1e10')")
        assert not store.exists()

    def test_ingest_missing_checkpoint_is_a_clear_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["observe", "ingest",
                  "--from", str(tmp_path / "nothing"),
                  "--store-dir", str(tmp_path / "store")])
        assert "no checkpoint directory" in str(exc.value)
