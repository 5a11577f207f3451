import dataclasses
import json

import pytest

from epra_kit import epra, subspace
from epra_kit.bench import RECORDS_JSONL, RESULTS_CSV, load_records_jsonl
from epra_kit.cli import build_parser, main
from epra_kit.epra import EpraConfig, load_result
from epra_kit.instances import gen_controlled, gen_naive, gen_partitioned
from epra_kit.subspace import load_instance


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_controlled_round_trip(self, tmp_path):
        out = tmp_path / "inst.json"
        code = run(
            "gen", "--family", "controlled", "--n", "10", "--m", "4",
            "--delta-cap", "0.01", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        inst = load_instance(out)  # checked as it loads
        assert inst.meta.generator == "controlled"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(
                "gen", "--family", "naive", "--n", "8", "--m", "3",
                "--seed", "9", "--out", str(path),
            ) == 0
        assert a.read_text() == b.read_text()

    def test_partitioned_derives_m(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(
            "gen", "--family", "partitioned", "--n", "12", "--seed", "4",
            "--out", str(out),
        ) == 0
        inst = load_instance(out)
        assert inst.meta.known_partition is not None

    def test_delta_cap_is_free_without_forced_entries(self, tmp_path):
        # at --frac-small 0 no entry is drawn below --delta-cap, so any cap
        # gives the same instance
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for cap, path in (("0", a), ("0.7", b)):
            assert run(
                "gen", "--family", "controlled", "--n", "8", "--m", "3", "--frac-small", "0",
                "--delta-cap", cap, "--seed", "1", "--out", str(path),
            ) == 0
        assert a.read_text() == b.read_text()

    def test_partitioned_rejects_m(self, tmp_path):
        code = run(
            "gen", "--family", "partitioned", "--n", "12", "--m", "5",
            "--seed", "4", "--out", str(tmp_path / "p.json"),
        )
        assert code == 2

    def test_partitioned_ignores_the_controlled_knobs(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(
            "gen", "--family", "partitioned", "--n", "12", "--delta-cap", "0",
            "--frac-small", "2", "--seed", "4", "--out", str(out),
        ) == 0
        assert load_instance(out).A.tobytes() == gen_partitioned(12, 4).A.tobytes()

    def test_missing_m_rejected(self, tmp_path):
        code = run(
            "gen", "--family", "naive", "--n", "8", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("family, m, expected", [
        ("naive", "3", lambda: gen_naive(3, 12, 7)),
        ("controlled", "3", lambda: gen_controlled(3, 12, 0.01, frac_small=0.25, seed=7)),
        # the partitioned family ignores --delta-cap and --frac-small
        ("partitioned", None, lambda: gen_partitioned(12, 7)),
    ])
    def test_matches_library_generator(self, tmp_path, family, m, expected):
        out = tmp_path / "inst.json"
        args = ["gen", "--family", family, "--n", "12", "--seed", "7",
                "--delta-cap", "0.01", "--frac-small", "0.25", "--out", str(out)]
        if m is not None:
            args += ["--m", m]
        assert run(*args) == 0
        assert load_instance(out).A.tobytes() == expected().A.tobytes()

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--family", "weird", "--n", "8", "--seed", "1",
                "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2


class TestSolveAndVerify:
    def _gen(self, tmp_path, family="controlled", n="10", m="4", seed="5"):
        inst = tmp_path / "inst.json"
        args = ["gen", "--family", family, "--n", n, "--seed", seed,
                "--out", str(inst)]
        if family != "partitioned":
            args += ["--m", m]
        assert run(*args) == 0
        return inst

    def test_solve_writes_result(self, tmp_path):
        inst = self._gen(tmp_path)
        out = tmp_path / "res.json"
        code = run("solve", "--instance", str(inst), "--out", str(out))
        assert code == 0
        res = load_result(out)
        assert res.status == "trivial_primal"

    def test_solve_flags(self, tmp_path):
        inst = self._gen(tmp_path)
        out = tmp_path / "res.json"
        code = run(
            "solve", "--instance", str(inst), "--scheme", "vna",
            "--U", "1e8", "--epsilon", "0.25", "--max-rounds", "50",
            "--rescale-mode", "all", "--out", str(out),
        )
        assert code == 0

    def test_solve_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["solve", "--instance", "i.json", "--out", "r.json"])
        defaults = dataclasses.asdict(EpraConfig())
        flags = {name: getattr(args, name)
                 for name in ("U", "epsilon", "scheme", "max_rounds", "rescale_mode")}
        assert flags == {name: defaults[name] for name in flags}
        args = build_parser().parse_args(["verify", "--instance", "i.json", "--result", "r.json"])
        assert args.U == defaults["U"]

    def test_solver_failure_exit_code(self, tmp_path):
        inst = self._gen(tmp_path, seed="6")
        out = tmp_path / "res.json"
        # single-direction rescaling with a tight round budget fails
        code = run(
            "solve", "--instance", str(inst), "--rescale-mode", "single",
            "--max-rounds", "1", "--out", str(out),
        )
        assert code == 1

    def test_verify_accepts_good_result(self, tmp_path, capsys):
        inst = self._gen(tmp_path, family="partitioned", n="12", seed="8")
        out = tmp_path / "res.json"
        assert run("solve", "--instance", str(inst), "--out", str(out)) == 0
        code = run("verify", "--instance", str(inst), "--result", str(out))
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["relint_ok"] is True
        assert report["partition_matches_ground_truth"] is True

    def test_verify_prints_the_report_fields_in_order(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        out = tmp_path / "res.json"
        assert run("solve", "--instance", str(inst), "--out", str(out)) == 0
        capsys.readouterr()
        assert run("verify", "--instance", str(inst), "--result", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["membership_ok", "positivity_ok", "relint_ok",
                                              "partition_matches_ground_truth", "max_residual"]

    def test_verify_rejects_corrupted_result(self, tmp_path):
        inst = self._gen(tmp_path)
        out = tmp_path / "res.json"
        assert run("solve", "--instance", str(inst), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["x"] = [-v for v in doc["x"]]
        out.write_text(json.dumps(doc))
        assert run("verify", "--instance", str(inst), "--result", str(out)) == 1

    def test_empty_instance_is_one_error_line(self, tmp_path, capsys):
        # a shape no instance can have is invalid input, as a NaN entry is
        inst = tmp_path / "inst.json"
        for n, m, A in [(0, 0, []), (2, 3, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])]:
            inst.write_text(json.dumps({"n": n, "m": m, "A": A, "meta": None}))
            code = run("solve", "--instance", str(inst), "--out", str(tmp_path / "res.json"))
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "DimensionMismatch" in err[0]
            assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("n, m, A", [
        (2, 2, [[1.0, -2.0, 3.0, 4.0]]),
        (4, 1, [[1.0, -2.0], [3.0, 4.0]]),
    ])
    def test_misshaped_instance_is_invalid_input(self, tmp_path, capsys, n, m, A):
        # the file's n and m are checked against A, not used to reshape it
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"n": n, "m": m, "A": A, "meta": None}))
        code = run("solve", "--instance", str(inst), "--out", str(tmp_path / "res.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("epra-kit: invalid input:") and err.count("\n") == 1
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("doc", [
        {"n": 2.7, "m": 1.9, "A": [[1.0, -2.0]], "meta": {"seed": 3.9}},
        {"n": True, "m": 0, "A": [], "meta": None},
        # a known interior point off ker(A)
        {"n": 2, "m": 1, "A": [[1.0, -2.0]], "meta": {"known_interior_point": [1.0, 1.0]}},
    ], ids=["float counts", "bool n", "inconsistent meta"])
    def test_invalid_instance_file_is_invalid_input(self, tmp_path, capsys, doc):
        good = self._gen(tmp_path)
        res = tmp_path / "res.json"
        assert run("solve", "--instance", str(good), "--out", str(res)) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", "--instance", str(bad), "--out", str(tmp_path / "r2.json")) == 2
        assert run("verify", "--instance", str(bad), "--result", str(res)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("epra-kit: invalid input:") for line in err)
        assert not (tmp_path / "r2.json").exists()

    def test_rank_deficient_file_is_one_error_line(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"n": 3, "m": 2, "A": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]}))
        code = run("solve", "--instance", str(inst), "--out", str(tmp_path / "res.json"))
        assert code == 1
        assert capsys.readouterr().err == (
            "epra-kit: RankDeficient: matrix is rank deficient within 1e-10 "
            "(diagonal range [1.911e-16, 1.000e+00])\n")

    def test_solve_factors_as_often_as_the_library(self, tmp_path, monkeypatch):
        # the instance is checked as it loads, with no factorization of its own
        path = self._gen(tmp_path, family="partitioned", n="20", seed="3")
        calls = []
        qr = subspace._orthonormal_range_basis
        monkeypatch.setattr(subspace, "_orthonormal_range_basis",
                            lambda *args, **kw: calls.append(1) or qr(*args, **kw))
        assert run("solve", "--instance", str(path), "--out", str(tmp_path / "res.json")) == 0
        from_cli = len(calls)
        epra.solve(load_instance(path), EpraConfig())
        assert from_cli == len(calls) - from_cli > 0

    def test_missing_file_is_invalid_input(self, tmp_path):
        code = run("solve", "--instance", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "res.json"))
        assert code == 2


class TestBenchAndHist:
    def _manifest(self, tmp_path, **extra):
        doc = {
            "experiment": "EpraNaive",
            "sizes": [[2, 6]],
            "instances_per_cell": 3,
            "base_seed": 21,
        }
        doc.update(extra)
        path = tmp_path / "man.json"
        path.write_text(json.dumps(doc))
        return path

    def test_bench_end_to_end(self, tmp_path):
        man = self._manifest(tmp_path)
        out_dir = tmp_path / "out"
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_dir)) == 0
        assert (out_dir / RESULTS_CSV).exists()
        records = load_records_jsonl(out_dir / RECORDS_JSONL)
        assert len(records) == 3
        hist = tmp_path / "hist.csv"
        assert run(
            "hist", "--results", str(out_dir / RECORDS_JSONL),
            "--field", "rounds", "--out", str(hist),
        ) == 0
        assert hist.read_text().splitlines()[0] == "value,count"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        man = self._manifest(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_a)) == 0
        monkeypatch.setenv("EPRA_SEED", "999")
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_b)) == 0
        seeds_a = {r["seed"] for r in load_records_jsonl(out_a / RECORDS_JSONL)}
        seeds_b = {r["seed"] for r in load_records_jsonl(out_b / RECORDS_JSONL)}
        assert seeds_a != seeds_b

    def test_out_of_range_env_seed_is_invalid_input(self, tmp_path, capsys, monkeypatch):
        # EPRA_SEED is checked like the manifest's base_seed; -1 used to
        # turn every task into an error
        man = self._manifest(tmp_path)
        out_dir = tmp_path / "o"
        monkeypatch.setenv("EPRA_SEED", "-1")
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("epra-kit: invalid input:") and err.count("\n") == 1
        assert "base_seed" in err
        assert not out_dir.exists()

    def test_parallelism_flag(self, tmp_path):
        man = self._manifest(tmp_path)
        out_dir = tmp_path / "out_par"
        assert run(
            "bench", "--manifest", str(man), "--out-dir", str(out_dir),
            "--parallelism", "2",
        ) == 0
        assert len(load_records_jsonl(out_dir / RECORDS_JSONL)) == 3

    @pytest.mark.parametrize("parallelism", ["0", "-1"])
    def test_out_of_range_parallelism_is_invalid_input(self, tmp_path, capsys, parallelism):
        man = self._manifest(tmp_path)
        out_dir = tmp_path / "o"
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_dir),
                   "--parallelism", parallelism) == 2
        err = capsys.readouterr().err
        assert err.startswith("epra-kit: invalid input:") and err.count("\n") == 1
        assert "parallelism" in err
        assert not out_dir.exists()

    def test_bad_manifest_is_invalid_input(self, tmp_path):
        man = self._manifest(tmp_path, experiment="Bogus")
        assert run("bench", "--manifest", str(man),
                   "--out-dir", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("extra", [
        {"epsilon": 1.5}, {"iter_limit": -3}, {"U": 0.5}, {"sizes": []},
        {"instances_per_cell": 2.5}, {"parallelism": 1.5}, {"base_seed": -1},
        {"base_seed": 1.5},
    ])
    def test_out_of_range_manifest_is_invalid_input(self, tmp_path, capsys, extra):
        man = self._manifest(tmp_path, **extra)
        out_dir = tmp_path / "o"
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("epra-kit: invalid input:") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_hist_of_non_integral_field_is_invalid_input(self, tmp_path, capsys):
        records = tmp_path / RECORDS_JSONL
        records.write_text("".join(json.dumps({"cpu_seconds": v}) + "\n"
                                   for v in (0.25, 0.75, 1.9)))
        hist = tmp_path / "hist.csv"
        assert run("hist", "--results", str(records), "--field", "cpu_seconds",
                   "--out", str(hist)) == 2
        assert "non-integral" in capsys.readouterr().err
        assert not hist.exists()

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_bench_counts_errored_instances(self, tmp_path, capsys, parallelism):
        # one [m, n] cell in an experiment whose cells are [n]: both of its
        # instances raise, the [n] cell's two solve; the batch exits 1
        man = self._manifest(tmp_path, experiment="EpraPartition",
                             sizes=[[3, 8], [8]], instances_per_cell=2)
        out_dir = tmp_path / "out"
        assert run("bench", "--manifest", str(man), "--out-dir", str(out_dir),
                   "--parallelism", parallelism) == 1
        assert "1 result rows, 2 of 4 instances errored" in capsys.readouterr().out
        assert json.loads((out_dir / "summary.json").read_text()) == {
            "experiment": "EpraPartition", "tasks": 4, "errored": 2,
        }
        records = load_records_jsonl(out_dir / RECORDS_JSONL)
        assert sum("error" in r for r in records) == 2
