import csv
import dataclasses
import json
import math

import pytest

from ofdma_relay import cli, harness
from ofdma_relay.cli import main
from ofdma_relay.config import ConfigError
from ofdma_relay.harness import (CSV_COLUMNS, FIELDS, SWEEP_COLUMNS,
                                 ExperimentSpec, TrialRecord, run_gap_pdf,
                                 run_single, run_sweep_distance, run_validate)


class TestExperimentSpec:
    def test_defaults_valid(self):
        spec = ExperimentSpec(kind="gap-pdf")
        assert spec.trials == 1 and spec.protocols == ("proposed",)

    # Each case sets only fields its kind reads, so it fails for its own
    # reason rather than as an unread field.
    @pytest.mark.parametrize("kw", [
        dict(trials=0), dict(protocols=()), dict(protocols=("nope",)),
        dict(kind="sweep"),
        dict(kind="solve", snr_db=float("nan")),
        dict(kind="solve", snr_db=float("inf")),
        dict(kind="solve", d_km=float("nan")),
        dict(kind="solve", d_km=float("-inf")),
        dict(kind="sweep", sweep=(0.3, float("nan"))),
        dict(kind="solve", snr_db="20"), dict(kind="solve", K=8.5),
        dict(kind="solve", K=True), dict(trials="1"),
        dict(protocols=(["bp1"],)), dict(refill=1),
        dict(out=""), dict(out=5),
        dict(protocols=["proposed"]), dict(kind="sweep", sweep=0.5),
        dict(kind="sweep", sweep=(0.3, "0.5")),
        dict(kind="sweep", sweep=(0.3, False)), dict(seed=-1),
        dict(protocols=("bp1", "bp1")), dict(kind="solve", K=0), dict(U=0),
        dict(kind="sweep", sweep=(0.5, 0.5)),
        dict(kind="sweep", sweep=(0.3, -0.5)),
        dict(kind="sweep", sweep=(0.3, 0)), dict(kind="solve", d_km=0.0),
        dict(kind="solve", d_km=-1),
    ])
    def test_invalid_rejected(self, kw):
        base = dict(kind="gap-pdf")
        base.update(kw)
        with pytest.raises(ConfigError) as exc:
            ExperimentSpec(**base)
        assert "does not read" not in str(exc.value)

    def test_unread_field_or_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="gap-pdf does not read K"):
            ExperimentSpec(kind="gap-pdf", K=8)
        with pytest.raises(ConfigError, match="unknown kind"):
            ExperimentSpec(kind="bogus")


class TestGapPdf:
    def test_records_and_files(self, tmp_path):
        out = tmp_path / "gap.csv"
        spec = ExperimentSpec(kind="gap-pdf", trials=5, seed=100,
                              protocols=("proposed", "bp1"), out=str(out))
        records = run_gap_pdf(spec)
        assert len(records) == 10
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 11
        assert (tmp_path / "gap.hist.csv").exists()
        sidecar = json.loads((tmp_path / "gap.spec.json").read_text())
        assert sidecar["records"] == 10
        assert sorted(sidecar["spec"]) == sorted(("kind",) + FIELDS["gap-pdf"])
        assert (sidecar["exact_stationary_exits"]
                + sidecar["epsilon_exits"]) == 10

    def test_csv_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_gap_pdf(ExperimentSpec(kind="gap-pdf", trials=4, seed=7,
                                       out=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_trials_are_reproducible_in_isolation(self):
        long = run_gap_pdf(ExperimentSpec(kind="gap-pdf", trials=4, seed=7))
        short = run_gap_pdf(ExperimentSpec(kind="gap-pdf", trials=1, seed=10))
        assert long[3] == short[0]


class TestSweep:
    def test_aggregates_match_raw(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = ExperimentSpec(kind="sweep", trials=3, sweep=(0.3, 0.7),
                              K=8, protocols=("proposed", "bp1"), seed=5,
                              out=str(out))
        rows, raw = run_sweep_distance(spec)
        assert len(rows) == 4 and len(raw) == 12
        for row in rows:
            sub = [r for r in raw
                   if r.protocol == row["protocol"] and r.d_km == row["d_km"]]
            assert len(sub) == 3
            assert row["mean_wsr"] == pytest.approx(
                sum(r.wsr for r in sub) / 3, rel=1e-12)
            assert row["max_iterations"] == max(r.iterations for r in sub)
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == SWEEP_COLUMNS
        assert (tmp_path / "sweep.raw.csv").exists()
        sidecar = json.loads((tmp_path / "sweep.spec.json").read_text())
        assert sorted(sidecar["spec"]) == sorted(("kind",) + FIELDS["sweep"])

    def test_out_always_writes_raw_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = ExperimentSpec(kind="sweep", trials=2, sweep=(0.3, 0.7), K=8,
                              protocols=("proposed", "bp2"), seed=3,
                              out=str(out))
        _, raw = run_sweep_distance(spec)
        with open(tmp_path / "sweep.raw.csv") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == CSV_COLUMNS
        # Floats are written as repr, so parsing them back is exact.
        types = [f.type for f in dataclasses.fields(TrialRecord)]
        parse = {"int": int, "float": float, "str": str}
        assert [TrialRecord(*(parse[t](v) for t, v in zip(types, row)))
                for row in rows] == raw

    def test_same_channel_for_every_protocol(self):
        spec = ExperimentSpec(kind="sweep", trials=2, sweep=(0.5,), K=8,
                              protocols=("proposed", "bp1", "bp2"), seed=9)
        _, raw = run_sweep_distance(spec)
        seeds = {r.protocol: [x.seed for x in raw if x.protocol == r.protocol]
                 for r in raw}
        assert len({tuple(v) for v in seeds.values()}) == 1


class TestValidate:
    def test_passes_against_oracle(self):
        spec = ExperimentSpec(kind="validate", trials=6, K=3, U=2, seed=1,
                              protocols=("proposed", "bp1", "bp2"))
        verdict = run_validate(spec)
        assert verdict["pass"] is True
        assert verdict["trials"] == 6
        assert all(t["audit_rejects_overrun"] for t in verdict["results"])

    def test_size_guard(self):
        with pytest.raises(ConfigError):
            run_validate(ExperimentSpec(kind="validate", K=8, U=2))


class TestRunSingle:
    def test_report_shape(self):
        spec = ExperimentSpec(kind="solve", K=8, U=2, seed=3,
                              protocols=("proposed", "bp2"))
        result = run_single(spec)
        assert set(result["reports"]) == {"proposed", "bp2"}
        for rep in result["reports"].values():
            assert rep["wsr"] > 0
            assert rep["mode"] in ("exact-stationary", "approx-upper-bound")


class TestCli:
    def test_solve_ok(self, capsys):
        assert main(["solve", "--k", "8", "--users", "2", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "proposed" in out["reports"]

    def test_validate_ok(self, capsys):
        code = main(["validate", "--k", "3", "--users", "2", "--trials", "3",
                     "--protocol", "proposed"])
        assert code == 0

    def test_json_output_is_strict(self, tmp_path, capsys, monkeypatch):
        # RFC 8259 has no Infinity, so an infinite gap (wsr 0 < slack) is
        # written as null; here every solve reports one.
        real_solve = harness.solve

        def infinite_gap(*args, **kwargs):
            alloc, report = real_solve(*args, **kwargs)
            return alloc, dataclasses.replace(report, delta=math.inf)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        monkeypatch.setattr(harness, "solve", infinite_gap)
        solved, validated = tmp_path / "s.json", tmp_path / "v.json"
        assert main(["solve", "--k", "4", "--out", str(solved)]) == 0
        for text in (capsys.readouterr().out, solved.read_text()):
            report = json.loads(text, parse_constant=reject)["reports"]
            assert report["proposed"]["delta"] is None
        main(["validate", "--k", "3", "--users", "2", "--trials", "2",
              "--out", str(validated)])
        assert "pass" in json.loads(capsys.readouterr().out,
                                    parse_constant=reject)
        results = json.loads(validated.read_text(),
                             parse_constant=reject)["results"]
        assert [r["delta"] for r in results] == [None, None]

    def test_validate_size_guard_is_config_error(self):
        assert main(["validate", "--k", "9"]) == 2

    def test_bad_trials_is_config_error(self):
        assert main(["gap-pdf", "--trials", "0"]) == 2

    def test_unwritable_out_is_io_error(self, tmp_path):
        assert main(["gap-pdf", "--trials", "1", "--out",
                     str(tmp_path)]) == 3

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 3

    def test_malformed_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "extra.json"
        cfg.write_text(json.dumps({"K": 8, "bogus": 1}))
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 8, "U": 2, "seed": 3}))
        assert main(["solve", "--config", str(cfg), "--k", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 4 and out["U"] == 2

    @pytest.mark.parametrize("flags", [
        ["--snr-db", "nan"], ["--snr-db", "inf"], ["--snr-db", "4000"],
        ["--snr-db", "-4000"], ["--d-km", "nan"], ["--d-km", "inf"],
        ["--d-km=-inf"], ["--seed", "-1"],
    ])
    def test_nonfinite_or_overflowing_input_is_config_error(self, flags):
        assert main(["solve", "--k", "8", *flags]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "1", "--k", "4", "--d-list", "0.5",
         "--protocol", "bp1", "--protocol", "bp1"],
        ["validate", "--k", "0", "--users", "2"],
        ["validate", "--k", "3", "--users", "0"],
    ])
    def test_repeated_protocol_or_empty_size_is_config_error(self, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("values", [
        {"snr_db": "20"}, {"K": 8.5}, {"seed": None}, {"refill": "no"},
        {"protocols": "proposed"}, {"sweep": 0.5}, {"protocols": [["bp1"]]},
    ])
    def test_wrongly_typed_config_is_config_error(self, tmp_path, values,
                                                  capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(values))
        command = "sweep" if "sweep" in values else "solve"
        assert main([command, "--config", str(cfg)]) == 2
        assert "does not read" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"x"', "null"])
    def test_non_object_config_is_config_error(self, tmp_path, capsys,
                                               text):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--trials", "1"], ["gap-pdf", "--k", "8"],
        ["gap-pdf", "--snr-db", "10"], ["gap-pdf", "--d-km", "0.3"],
        ["sweep", "--d-list", "0.5", "--d-km", "0.3"],
        ["validate", "--snr-db", "3"], ["validate", "--refill"],
    ])
    def test_unread_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, name", [
        (command, f.name) for command in FIELDS
        for f in dataclasses.fields(ExperimentSpec)
        if f.name not in FIELDS[command]])
    def test_unread_config_key_is_config_error(self, tmp_path, capsys,
                                               command, name):
        cfg = tmp_path / "unread.json"
        cfg.write_text(json.dumps({name: 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "does not read" in capsys.readouterr().err

    def test_each_command_has_only_its_fields_as_flags(self):
        for command, fields in FIELDS.items():
            args = cli._build_parser().parse_args([command])
            assert set(vars(args)) == {"command", "config", *fields}

    def test_unexpected_error_exits_4(self, monkeypatch, capsys):
        def fail(spec):
            raise MemoryError("simulated")
        monkeypatch.setattr(cli, "run_single", fail)
        assert main(["solve", "--k", "8"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("unexpected error: MemoryError('simulated')")
        assert "Traceback" in err

    def test_eps_is_no_longer_an_option(self, tmp_path):
        # The bisection tolerance is a fixed module constant, and sweep
        # --out always writes its per-trial rows, so --raw is gone too.
        for argv in (["solve", "--k", "8", "--eps", "1e-6"],
                     ["sweep", "--d-list", "0.5", "--raw"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        cfg = tmp_path / "eps.json"
        cfg.write_text(json.dumps({"K": 8, "eps": 1e-6}))
        assert main(["solve", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"raw": True}))
        for command in FIELDS:
            assert main([command, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "2", "--k", "8", "--d-list", "0.3", "-0.5"],
        ["sweep", "--trials", "2", "--k", "8", "--d-list", "0.3", "0"],
        ["sweep", "--trials", "2", "--k", "4", "--d-list", "0.5", "0.5",
         "--out", "r.csv"],
        ["gap-pdf", "--trials", "1", "--out", ""],
    ])
    def test_bad_sweep_list_or_empty_out_exits_before_solving(
            self, monkeypatch, capsys, argv):
        # A call to solve would exit 4, so exit 2 shows that no trial ran.
        def fail(*args, **kwargs):
            raise AssertionError("solve was called")
        monkeypatch.setattr(harness, "solve", fail)
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_requires_distances(self):
        assert main(["sweep", "--trials", "1"]) == 2

    def test_sweep_ok(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--trials", "1", "--k", "8", "--d-list", "0.5",
                     "--out", str(out)])
        assert code == 0 and out.exists()
        assert (tmp_path / "s.raw.csv").exists()
