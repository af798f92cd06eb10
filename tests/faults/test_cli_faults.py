"""CLI surface of the fault-injection subsystem."""

from repro.cli import build_parser, main


class TestParserFlags:
    def test_localize_fault_defaults(self):
        args = build_parser().parse_args(["localize"])
        assert args.max_retries == 2
        assert args.fault_profile == "none"

    def test_localize_accepts_fault_spec(self):
        args = build_parser().parse_args(
            ["localize", "--fault-profile", "replay_abort=0.5", "--max-retries", "4"]
        )
        assert args.fault_profile == "replay_abort=0.5"
        assert args.max_retries == 4


class TestLocalizeWithFaults:
    def test_all_attempts_aborted_fails_cleanly(self, capsys):
        code = main(
            ["localize", "--app", "zoom", "--duration", "20", "--seed", "1",
             "--fault-profile", "replay_abort=1.0", "--max-retries", "1"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "replay aborted" in out
        assert "faults" in out
        assert "failed" in out

    def test_transient_abort_is_retried(self, capsys):
        code = main(
            ["localize", "--app", "zoom", "--limiter", "common",
             "--duration", "20", "--seed", "3",
             "--fault-profile", "replay_abort=1.0:1", "--max-retries", "2"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # the retried localization ran to a verdict
        assert "attempt 1/3" in out
        assert "outcome" in out

    def test_bad_fault_spec_errors(self, capsys):
        code = main(
            ["localize", "--duration", "5", "--fault-profile", "solar_flare=1.0"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown fault site")
