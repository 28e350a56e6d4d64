import csv
import json

import pytest

from ofdma_relay.cli import main
from ofdma_relay.config import ConfigError
from ofdma_relay.harness import (CSV_COLUMNS, SWEEP_COLUMNS, ExperimentSpec,
                                 run_gap_pdf, run_single, run_sweep_distance,
                                 run_validate)


class TestExperimentSpec:
    def test_defaults_valid(self):
        spec = ExperimentSpec(kind="gap-pdf")
        assert spec.trials == 1 and spec.protocols == ("proposed",)

    @pytest.mark.parametrize("kw", [
        dict(trials=0), dict(protocols=()), dict(protocols=("nope",)),
        dict(kind="sweep"),
        dict(snr_db=float("nan")), dict(snr_db=float("inf")),
        dict(d_km=float("nan")), dict(d_km=float("-inf")),
        dict(kind="sweep", sweep=(0.3, float("nan"))),
        dict(eps=float("nan")), dict(eps=float("inf")), dict(eps=0.0),
        dict(eps=-1e-6),
    ])
    def test_invalid_rejected(self, kw):
        base = dict(kind="gap-pdf")
        base.update(kw)
        with pytest.raises(ConfigError):
            ExperimentSpec(**base)


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
        assert long[3].csv_row() == short[0].csv_row()


class TestSweep:
    def test_aggregates_match_raw(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = ExperimentSpec(kind="sweep", trials=3, sweep=(0.3, 0.7),
                              K=8, protocols=("proposed", "bp1"), seed=5,
                              raw=True, out=str(out))
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
        cfg.write_text(json.dumps({"K": 8, "U": 2, "seed": 3, "trials": 1}))
        assert main(["solve", "--config", str(cfg), "--k", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 4 and out["U"] == 2

    @pytest.mark.parametrize("flags", [
        ["--snr-db", "nan"], ["--snr-db", "inf"], ["--snr-db", "4000"],
        ["--snr-db", "-4000"], ["--d-km", "nan"], ["--d-km", "inf"],
        ["--eps", "nan"],
    ])
    def test_nonfinite_or_overflowing_input_is_config_error(self, flags):
        assert main(["solve", "--k", "8", *flags]) == 2

    def test_sweep_requires_distances(self):
        assert main(["sweep", "--trials", "1"]) == 2

    def test_sweep_ok(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--trials", "1", "--k", "8", "--d-list", "0.5",
                     "--out", str(out)])
        assert code == 0 and out.exists()
