import csv
import hashlib
import itertools
import re

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

    @pytest.mark.parametrize("field, value, message", [
        ("sizes", [], "sizes"),
        ("epsilon", 1.5, "epsilon"),
        ("epsilon", 0.0, "epsilon"),
        ("iter_limit", -3, "iter_limit"),
        ("iter_limit", 2.5, "iter_limit"),
        ("iter_limit", True, "iter_limit"),
        ("U", 0.5, "U must exceed 1"),
        ("U", 1.0, "U must exceed 1"),
        ("epsilon", float("nan"), "epsilon"),
        ("U", float("nan"), "U must exceed 1"),
        ("U", float("inf"), "U must exceed 1"),
        ("instances_per_cell", 2.5, "instances_per_cell"),
        ("parallelism", 1.5, "parallelism"),
        ("base_seed", -1, "base_seed"),
        ("base_seed", 1.5, "base_seed"),
    ])
    def test_rejects_values_every_task_would_fail_on(self, field, value, message):
        # each of these used to run nothing, or turn every task into an
        # error record
        with pytest.raises(ValueError, match=message):
            ExperimentManifest(**{"experiment": "EpraControlled", "sizes": [[3, 8]],
                                  field: value})

    def test_range_ends_accepted(self):
        man = ExperimentManifest(experiment="EpraControlled", sizes=[[3, 8]],
                                 epsilon=0.999, iter_limit=0, U=1.5)
        assert (man.epsilon, man.iter_limit, man.U) == (0.999, 0, 1.5)

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

    def test_bad_cell_error_names_plain_ints(self, tmp_path):
        man = ExperimentManifest(
            experiment="EpraPartition", sizes=[[3, 8]], instances_per_cell=1,
        )
        run_experiment(man, out_dir=tmp_path)
        (record,) = load_records_jsonl(tmp_path / RECORDS_JSONL)
        assert record["error"] == (
            "ValueError: EpraPartition cells are [n], got [3, 8]"
        )

    def test_non_integral_cell_is_recorded_not_truncated(self, tmp_path):
        man = ExperimentManifest(
            experiment="EpraControlled", sizes=[[4, 10], [3.7, 8]], instances_per_cell=1,
        )
        rows = run_experiment(man, out_dir=tmp_path)
        assert [(r.m, r.n) for r in rows] == [(4, 10)]
        records = load_records_jsonl(tmp_path / RECORDS_JSONL)
        assert [r["error"] for r in records if "error" in r] == [
            "ValueError: cell 1 entries must be integers, got [3.7, 8.0]"
        ]

    def test_integral_float_cell_runs_as_its_integer(self):
        as_ints = run_experiment(bp_manifest(sizes=[[3, 6]], instances_per_cell=1))
        as_floats = run_experiment(bp_manifest(sizes=[[3.0, 6.0]], instances_per_cell=1))
        strip = lambda rows: [(r.m, r.n, r.scheme, r.avg_iterations) for r in rows]
        assert strip(as_floats) == strip(as_ints)


class TestRowOrder:
    @pytest.mark.parametrize("sizes", [
        [[3, 8], [20, 40], [5, 10]],
        [[5, 10], [20, 40]],
    ])
    def test_cells_sorted_numerically(self, sizes):
        man = ExperimentManifest(experiment="EpraControlled", sizes=sizes,
                                 instances_per_cell=1, base_seed=13)
        rows = run_experiment(man)
        assert [(r.m, r.n) for r in rows] == sorted(tuple(s) for s in sizes)

    def test_schemes_stay_in_name_order_within_a_cell(self):
        rows = run_experiment(bp_manifest(sizes=[[12, 24], [3, 6]], instances_per_cell=1))
        schemes = ["perceptron", "smooth", "vn", "vna"]
        assert [(r.m, r.n, r.scheme) for r in rows] == (
            [(3, 6, s) for s in schemes] + [(12, 24, s) for s in schemes]
        )


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

    def test_integral_floats_share_the_integer_bin(self):
        assert emit_histogram([{"rounds": 2.0}, {"rounds": 2}], "rounds") == [(2, 2)]

    @pytest.mark.parametrize("value", [0.25, 0.75, 1.9, float("inf"), float("nan")])
    def test_non_integral_value_rejected(self, tmp_path, value):
        # truncating would put 0.25 and 0.75 in bin 0 and 1.9 in bin 1
        out = tmp_path / "hist.csv"
        with pytest.raises(ValueError, match="non-integral"):
            emit_histogram([{"cpu_seconds": 1.0}, {"cpu_seconds": value}], "cpu_seconds",
                           out_path=out)
        assert not out.exists()


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


# Frozen outputs of every experiment kind.  Each case runs a small manifest
# and hashes per_instance.jsonl and results.csv byte for byte, with only the
# timing values masked, so key order, row order, number formatting and
# error texts are all pinned.
GOLDEN = [
    ("bp-naive", dict(experiment="BpNaive", sizes=[[3, 6], [12, 24]],
                      instances_per_cell=2, iter_limit=300, base_seed=3),
     "48e0aa8d64f1a20e966163b6d699249c24d1880eeec9b515b249ef99a51924f2"),
    ("bp-controlled", dict(experiment="BpControlled", sizes=[[10, 20], [3, 8]],
                           instances_per_cell=2, epsilon=0.01, iter_limit=300,
                           base_seed=4),
     "98d4b5cbea687d88fd0ea2a0a26910d767b3cec17e0a1d58dce952e2ec667f9c"),
    ("epra-controlled", dict(experiment="EpraControlled", sizes=[[3, 8], [10, 20]],
                             instances_per_cell=2, base_seed=5),
     "5c90d23b20a68d4329e5f4196e445c72ae669b8856c76042ba14e3eb5507d81a"),
    ("epra-naive", dict(experiment="EpraNaive", sizes=[[2, 8], [12, 30]],
                        instances_per_cell=3, base_seed=6),
     "a382dc3dbf3e235ac759daa04a5274e454c405f89f097a0a27f883fdf4de2f74"),
    ("epra-partition", dict(experiment="EpraPartition", sizes=[[8], [12], [8]],
                            instances_per_cell=2, base_seed=7),
     "0fad3fa2388cb4eb2806e47e07b7cdb2cd4bb7592f97949d786f5bed1814cfa6"),
    ("rescale-mode-compare", dict(experiment="RescaleModeCompare",
                                  sizes=[[3, 8], [10, 20]], instances_per_cell=2,
                                  iter_limit=300, base_seed=8),
     "a541e38a1704738c31b1af6409973e3bcda3da26a7ff0b342cc845eefa209bff"),
    ("bad-cell", dict(experiment="EpraPartition", sizes=[[3, 8], [8]],
                      instances_per_cell=2, base_seed=9),
     "350987058d2178842c415f9b77e102d81af83ae0048d2c8f6c668909085515ac"),
    ("bad-cell-mn", dict(experiment="BpNaive", sizes=[[8], [3, 6]],
                         instances_per_cell=1, iter_limit=300, base_seed=10),
     "f74f41c5d38dad8904098564d76a906cb936214fa02fcca35e5e85f8e284da04"),
]

_TIMING_VALUE = re.compile(r'("(?:cpu|wall)_seconds": )[^,}]+')
_CPU_COLUMN = CSV_FIELDS.index("avg_cpu_seconds")


def _masked_outputs(out_dir) -> bytes:
    jsonl = (out_dir / RECORDS_JSONL).read_bytes().decode("utf-8")
    lines = (out_dir / RESULTS_CSV).read_bytes().decode("utf-8").split("\r\n")
    for k in range(1, len(lines)):
        cols = lines[k].split(",")
        if len(cols) > _CPU_COLUMN and cols[_CPU_COLUMN]:
            cols[_CPU_COLUMN] = "T"
        lines[k] = ",".join(cols)
    return (_TIMING_VALUE.sub(r"\1T", jsonl) + "\n--\n" + "\r\n".join(lines)).encode()


@pytest.mark.parametrize("name, manifest, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_match_golden(tmp_path, name, manifest, digest):
    run_experiment(ExperimentManifest(**manifest), out_dir=tmp_path)
    assert hashlib.sha256(_masked_outputs(tmp_path)).hexdigest() == digest
