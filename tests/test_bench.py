import csv
import itertools

import pytest

from epra_kit import bench
from epra_kit.bench import (
    CSV_FIELDS,
    ExperimentManifest,
    RECORDS_JSONL,
    RESULTS_CSV,
    emit_histogram,
    instance_seed,
    load_records_jsonl,
    run_experiment,
)


def bp_manifest(**kw):
    base = dict(
        experiment="BpNaive",
        sizes=[[3, 6], [4, 8]],
        instances_per_cell=3,
        epsilon=0.2,
        iter_limit=500,
        base_seed=7,
    )
    base.update(kw)
    return ExperimentManifest(**base)


class TestManifest:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentManifest(experiment="Nope", sizes=[[2, 4]])

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ExperimentManifest.from_dict({"experiment": "BpNaive", "sizes": [], "junk": 1})

    def test_load(self, tmp_path):
        path = tmp_path / "man.json"
        path.write_text(
            '{"experiment": "EpraNaive", "sizes": [[3, 6]], "instances_per_cell": 2,'
            ' "base_seed": 5}'
        )
        man = ExperimentManifest.load(path)
        assert man.experiment == "EpraNaive"
        assert man.base_seed == 5


class TestSeedDerivation:
    def test_index_derived_and_distinct(self):
        s = {instance_seed(1, c, i) for c in range(3) for i in range(10)}
        assert len(s) == 30
        assert instance_seed(1, 2, 3) == instance_seed(1, 2, 3)
        assert instance_seed(1, 2, 3) != instance_seed(2, 2, 3)


class TestBpExperiments:
    def test_rows_and_files(self, tmp_path):
        rows = run_experiment(bp_manifest(), out_dir=tmp_path)
        # one row per (cell, scheme)
        assert len(rows) == 8
        assert {r.scheme for r in rows} == {"perceptron", "vn", "vna", "smooth"}
        assert all(0.0 <= r.success_rate <= 1.0 for r in rows)
        assert all(r.avg_iterations is not None for r in rows)
        with open(tmp_path / RESULTS_CSV) as fh:
            header = next(csv.reader(fh))
        assert header == CSV_FIELDS
        records = load_records_jsonl(tmp_path / RECORDS_JSONL)
        # per-instance records: 2 cells x 3 instances x 4 schemes
        assert len(records) == 24

    def test_deterministic_across_runs_and_parallelism(self, tmp_path):
        keep = lambda row: {
            f: getattr(row, f) for f in CSV_FIELDS if f != "avg_cpu_seconds"
        }
        rows_serial = [keep(r) for r in run_experiment(bp_manifest())]
        rows_again = [keep(r) for r in run_experiment(bp_manifest())]
        rows_parallel = [keep(r) for r in run_experiment(bp_manifest(parallelism=2))]
        assert rows_serial == rows_again
        assert rows_serial == rows_parallel


class TestEpraExperiments:
    def test_epra_naive_fraction_field(self):
        man = ExperimentManifest(
            experiment="EpraNaive",
            sizes=[[2, 8]],
            instances_per_cell=4,
            base_seed=3,
        )
        (row,) = run_experiment(man)
        assert row.fraction_primal_feasible is not None
        assert 0.0 <= row.fraction_primal_feasible <= 1.0
        assert row.avg_rescaling_rounds is not None

    def test_epra_partition_cells_are_n_only(self):
        man = ExperimentManifest(
            experiment="EpraPartition",
            sizes=[[8]],
            instances_per_cell=3,
            base_seed=11,
        )
        (row,) = run_experiment(man)
        assert row.avg_m is not None
        assert row.success_rate is not None

    def test_epra_controlled_success(self):
        man = ExperimentManifest(
            experiment="EpraControlled",
            sizes=[[3, 8]],
            instances_per_cell=3,
            base_seed=13,
        )
        (row,) = run_experiment(man)
        assert row.success_rate == 1.0
        assert row.avg_total_bp_iterations > 0

    def test_rescale_mode_compare_rows(self):
        man = ExperimentManifest(
            experiment="RescaleModeCompare",
            sizes=[[3, 8]],
            instances_per_cell=2,
            base_seed=17,
        )
        rows = run_experiment(man)
        assert {r.scheme for r in rows} == {"all", "single"}

    def test_bad_cell_shape_is_recorded_not_raised(self, tmp_path):
        man = ExperimentManifest(
            experiment="EpraPartition",
            sizes=[[3, 8]],  # should be [n]
            instances_per_cell=1,
        )
        rows = run_experiment(man, out_dir=tmp_path)
        assert rows == []
        records = load_records_jsonl(tmp_path / RECORDS_JSONL)
        assert len(records) == 1 and "error" in records[0]


class TestHistogram:
    def test_counts(self, tmp_path):
        records = [{"rounds": 2}, {"rounds": 2}, {"rounds": 5}, {"other": 1}]
        out = tmp_path / "hist.csv"
        pairs = emit_histogram(records, "rounds", out_path=out)
        assert pairs == [(2, 2), (5, 1)]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,count"
        assert lines[1:] == ["2,2", "5,1"]

    def test_empty_input_gives_header_only(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert emit_histogram([], "rounds", out_path=out) == []
        assert out.read_text().strip() == "value,count"

    def test_single_bin_at_zero(self):
        assert emit_histogram([{"rounds": 0}] * 5, "rounds") == [(0, 5)]


class TestTimeAccounting:
    @pytest.fixture
    def fake_cpu_clock(self, monkeypatch):
        # every reading advances by 0.25 s, so each timed call costs exactly
        # 0.25 CPU seconds whatever its wall time
        ticks = itertools.count()
        monkeypatch.setattr(bench.time, "process_time", lambda: 0.25 * next(ticks))

    @pytest.mark.parametrize("experiment, sizes", [
        ("BpNaive", [[3, 6]]),
        ("EpraControlled", [[3, 8]]),
        ("EpraNaive", [[2, 8]]),
        ("EpraPartition", [[8]]),
        ("RescaleModeCompare", [[3, 8]]),
    ])
    def test_cpu_seconds_come_from_process_time(self, fake_cpu_clock, tmp_path,
                                                experiment, sizes):
        man = ExperimentManifest(experiment=experiment, sizes=sizes,
                                 instances_per_cell=2, base_seed=5)
        rows = run_experiment(man, out_dir=tmp_path)
        records = load_records_jsonl(tmp_path / RECORDS_JSONL)
        assert records and all("error" not in r for r in records)
        for rec in records:
            assert rec["cpu_seconds"] == 0.25
            assert rec["wall_seconds"] > 0.0 and rec["wall_seconds"] != 0.25
        assert all(row.avg_cpu_seconds == 0.25 for row in rows)
        with open(tmp_path / RESULTS_CSV) as fh:
            assert next(csv.reader(fh)) == CSV_FIELDS
