import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _fixtures import sample_bigram_corpus, write_token_stream
from seqmodes import cli
from seqmodes.cli import main
from seqmodes.distribution import (
    ConditionalOperator,
    conditional_operator,
    language_to_json,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)
from seqmodes.model import SoftmaxModel, fit_model, sample_dataset
from seqmodes.modes import ModeError, weighted_svd
from seqmodes.sgld import (
    ChainDivergedError,
    SGLDConfig,
    SoftmaxTarget,
    bound_g,
    coupled_bound_trial,
    run_chain,
)
from seqmodes.truncation import truncate


@pytest.fixture()
def fixture_corpus(tmp_path):
    lang = random_doubly_stochastic_language(7, 3)
    stream = sample_bigram_corpus(lang, n_docs=60, doc_len=40, seed=1)
    path = tmp_path / "corpus.txt"
    write_token_stream(stream, path)
    return path


@pytest.fixture()
def fixture_language(tmp_path):
    lang = random_doubly_stochastic_language(7, 3)
    path = tmp_path / "language.json"
    path.write_text(language_to_json(lang))
    return path


class TestIngest:
    def test_golden_counts(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("#alphabet 2\n0 1 0 1\n")
        out = tmp_path / "out"
        code = main(["ingest", "--corpus", str(path), "--k", "1", "--l", "1",
                     "--out", str(out)])
        assert code == 0
        text = (out / "counts.tsv").read_text()
        assert "0\t1\t2" in text
        assert "1\t0\t1" in text

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("#alphabet 2\n")
        code = main(["ingest", "--corpus", str(path), "--k", "1", "--l", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_corpus_exit_3(self, tmp_path):
        code = main(["ingest", "--corpus", str(tmp_path / "nope.txt"), "--k", "1",
                     "--l", "1", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_rerun_identical(self, fixture_corpus, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["ingest", "--corpus", str(fixture_corpus), "--k", "1",
                         "--l", "1", "--out", str(out)]) == 0
        assert (out1 / "counts.tsv").read_bytes() == (out2 / "counts.tsv").read_bytes()


class TestDecompose:
    def test_from_language(self, fixture_language, tmp_path):
        out = tmp_path / "dec"
        code = main(["decompose", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "decomposition.json").read_text())
        s = payload["singular_values"]
        assert s == sorted(s, reverse=True)
        assert (out / "top_loadings.txt").exists()

    def test_rank_padding_flagged(self, fixture_language, tmp_path):
        out = tmp_path / "dec"
        code = main(["decompose", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--rank", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert payload.get("rank_padded")
        assert len(payload["singular_values"]) == 7
        assert payload["singular_values"][-1] == 0.0

    @pytest.mark.parametrize("which, rank", [
        *(("random_21", rank) for rank in (1, 2, 3, 4, 9, 10)),
        *(("collective", rank) for rank in (4, 6, 7, 8, 9)),
    ])
    def test_rank_means_leading_modes_on_both_paths(self, tmp_path, which, rank):
        # the 3×9 (2,1) operator runs svds at rank 1 only; the rank-5 8×8
        # collective bigram runs svds up to rank 6 and the dense fallback past it
        lang, k = {
            "random_21": (random_language(0, 3, 3), 2),
            "collective": (plant_collective_bigram(random_language(3, 8, 2),
                                                   [(0,), (2,), (4,), (6,)], (1,)), 1),
        }[which]
        path, out = tmp_path / "language.json", tmp_path / "dec"
        path.write_text(language_to_json(lang))
        assert main(["decompose", "--language", str(path), "--k", str(k), "--l", "1",
                     "--rank", str(rank), "--out", str(out)]) == 0
        payload = json.loads((out / "decomposition.json").read_text())
        full = weighted_svd(conditional_operator(lang, k, 1))
        kept = min(rank, full.n_modes)
        assert len(payload["singular_values"]) == rank
        assert len(payload["components"]) == kept
        assert payload.get("rank_padded", False) == (rank > full.n_modes)
        np.testing.assert_allclose(payload["singular_values"],
                                   np.append(full.singular_values[:kept], np.zeros(rank - kept)),
                                   atol=1e-10)
        assert len((out / "top_loadings.txt").read_text().splitlines()) == kept

    def test_missing_counts_exit_3(self, tmp_path):
        code = main(["decompose", "--counts", str(tmp_path / "none.tsv"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_dense_export(self, fixture_language, tmp_path):
        out = tmp_path / "dec"
        code = main(["decompose", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--dense", "--out", str(out)])
        assert code == 0
        dense = json.loads((out / "decomposition_dense.json").read_text())
        assert len(dense["left_vectors"]) == 3
        assert len(dense["right_vectors"][0]) == 3

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_nonpositive_rank_exit_2(self, fixture_language, tmp_path, capsys, rank):
        code = main(["decompose", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--rank", rank, "--out", str(tmp_path / "dec")])
        assert code == 2
        assert f"input error: rank must be at least 1, got {rank}" in capsys.readouterr().err

    def test_rank_on_counts_never_densifies(self, fixture_corpus, tmp_path, monkeypatch):
        counts_out = tmp_path / "counts"
        assert main(["ingest", "--corpus", str(fixture_corpus), "--k", "2", "--l", "2",
                     "--out", str(counts_out)]) == 0

        def fail(op):
            raise AssertionError("the truncated path needs no dense operator")

        monkeypatch.setattr(ConditionalOperator, "matrix", property(fail))
        out = tmp_path / "dec"
        assert main(["decompose", "--counts", str(counts_out / "counts.tsv"), "--rank", "2",
                     "--out", str(out)]) == 0
        assert len(json.loads((out / "decomposition.json").read_text())["singular_values"]) == 2


class TestParser:
    def test_parser_built_once_and_configs_independent(self, fixture_language, tmp_path,
                                                       monkeypatch):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        common = ["--language", str(fixture_language), "--k", "1", "--l", "1"]
        assert main(["decompose", *common, "--dense", "--out", str(tmp_path / "a")]) == 0
        assert main(["decompose", *common, "--out", str(tmp_path / "b")]) == 0
        assert len(builds) == 1
        first = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        second = json.loads((tmp_path / "b" / "resolved_config.json").read_text())
        assert first["dense"] is True
        assert "dense" not in second
        assert not (tmp_path / "b" / "decomposition_dense.json").exists()


class TestPreset:
    def test_paper_preset_hyperparameters(self, fixture_language, tmp_path):
        out = tmp_path / "llc"
        code = main(["llc", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--n", "500", "--chains", "1", "--preset", "paper",
                     "--out", str(out)])
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["preset"] == "paper"
        trace = (out / "trace_chain0.csv").read_text().splitlines()
        assert len(trace) == 101  # header + T=100 states
        assert trace[1].split(",")[1] == "0.0001"


class TestTruncate:
    def test_kl_solver(self, fixture_language, tmp_path):
        out = tmp_path / "tr"
        code = main(["truncate", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--chi", "1", "--solver", "kl", "--out", str(out)])
        assert code == 0
        prov = json.loads((out / "truncation_provenance.json").read_text())
        assert prov["feasible"] and prov["chi"] == 1
        assert (out / "effective.tsv").exists()

    def test_infeasible_exit_4(self, tmp_path):
        lang = random_language(6, 3, 2)
        path = tmp_path / "lang.json"
        path.write_text(language_to_json(lang))
        out = tmp_path / "tr"
        code = main(["truncate", "--language", str(path), "--k", "1", "--l", "1",
                     "--chi", "0", "--solver", "kl", "--out", str(out)])
        assert code == 4
        diag = json.loads((out / "numerical_failure.json").read_text())
        assert "certified empty" in diag["error"]
        assert diag["diagnostics"]["certificate"] == "column_sums"

    def test_infeasible_diagnostics_in_out_from_config(self, tmp_path, monkeypatch):
        lang = tmp_path / "lang.json"
        lang.write_text(language_to_json(random_language(6, 3, 2)))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"language": str(lang), "k": 1, "l": 1, "chi": 0,
                                      "out": "tr"}))
        monkeypatch.chdir(tmp_path)
        assert main(["truncate", "--config", str(config)]) == 4
        diag = json.loads((tmp_path / "tr" / "numerical_failure.json").read_text())
        assert diag["diagnostics"]["certificate"] == "column_sums"
        assert not (tmp_path / "numerical_failure.json").exists()

    def test_projection_only(self, fixture_language, tmp_path):
        out = tmp_path / "tr"
        code = main(["truncate", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--chi", "0", "--solver", "projection_only",
                     "--out", str(out)])
        assert code == 0
        assert "normalized false" in (out / "effective.tsv").read_text()

    def test_dense_budget_exit_2(self, fixture_corpus, tmp_path, capsys, monkeypatch):
        counts_out = tmp_path / "counts"
        assert main(["ingest", "--corpus", str(fixture_corpus), "--k", "1", "--l", "1",
                     "--out", str(counts_out)]) == 0
        monkeypatch.setattr("seqmodes.distribution.DENSE_CELLS", 8)
        code = main(["truncate", "--counts", str(counts_out / "counts.tsv"), "--chi", "1",
                     "--out", str(tmp_path / "tr")])
        err = capsys.readouterr().err
        assert code == 2
        assert "input error: a dense 3×3 operator would need" in err
        assert "GiB" in err and "decompose --rank" in err and "Traceback" not in err

    @pytest.mark.parametrize("chi", ["-1", "7"])
    def test_projection_only_checks_chi(self, fixture_language, tmp_path, capsys, chi):
        code = main(["truncate", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--chi", chi, "--solver", "projection_only",
                     "--out", str(tmp_path / "tr")])
        assert code == 2
        assert f"input error: chi must be in [0, 3), got {chi}" in capsys.readouterr().err


class TestLlcAndCouple:
    def test_llc_runs(self, fixture_language, tmp_path):
        out = tmp_path / "llc"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "language": str(fixture_language), "k": 1, "l": 1,
            "n": 2000, "chains": 2, "T": 200, "epsilon": 1e-3, "gamma": 2.5,
        }))
        code = main(["llc", "--config", str(config), "--out", str(out), "--seed", "3"])
        assert code == 0
        payload = json.loads((out / "llc_estimate.json").read_text())
        assert payload["model_dim"] == 6
        assert len(payload["lambda_hat_per_chain"]) == 2
        assert payload["norm_cap_violations"] == [0, 0]  # no cap, nothing counted
        assert (out / "trace_chain0.csv").exists()

    def test_llc_reports_norm_cap_violations(self, fixture_language, tmp_path):
        # a cap far below any step's distance from w*: each of the T − 1 states
        # after the start at w* violates it
        out = tmp_path / "llc"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "language": str(fixture_language), "k": 1, "l": 1,
            "n": 300, "chains": 2, "T": 20, "weight_norm_cap": 1e-9,
        }))
        assert main(["llc", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "llc_estimate.json").read_text())
        assert payload["norm_cap_violations"] == [19, 19]

    def test_couple_identical_when_chi_full(self, fixture_language, tmp_path):
        # full cutoff keeps the distribution; divergence is sampling-noise only
        out = tmp_path / "couple"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "language": str(fixture_language), "k": 1, "l": 1, "chi": 2,
            "n": 2000, "T": 100, "epsilon": 1e-3, "gamma": 2.5, "n_seeds": 1,
        }))
        code = main(["couple", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "coupled_report.json").read_text())
        assert report["truncation_kl"] < 1e-9
        trace = (out / "coupled_trace.csv").read_text().splitlines()
        assert trace[0].split(",")[:4] == ["t", "epsilon", "loss", "distance_to_center"]

    def test_couple_mid_chi(self, fixture_language, tmp_path):
        out = tmp_path / "couple"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "language": str(fixture_language), "k": 1, "l": 1, "chi": 1,
            "n": 4000, "T": 120, "epsilon": 1e-3, "gamma": 2.5, "n_seeds": 2,
        }))
        code = main(["couple", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "coupled_report.json").read_text())
        assert report["delta_bound_pass"] == 2
        assert report["llc_bound_pass"] == 2
        hyper = report["hyperparameters"]
        assert hyper["epsilon"] == 1e-3 and "eps_min" not in hyper and "eps_max" not in hyper

    def test_couple_divergence_names_seed_chain_and_step(self, fixture_language, tmp_path,
                                                         capsys):
        # every seed diverges; the report names the earliest non-finite step
        # over all seeds, which here is not the first seed's, and seeds 1-3
        # tie at it, so the earliest of them is named
        fields = {"language": str(fixture_language), "k": 1, "l": 1, "chi": 1,
                  "n": 1000, "T": 1200, "epsilon": 2.5, "n_seeds": 6}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(fields))
        op = conditional_operator(random_doubly_stochastic_language(7, 3), 1, 1)
        eff = truncate(weighted_svd(op), 1)
        cfg = cli._sgld_config_from(fields, 1000, seed=0)
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        per_seed = []
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(6):
                with pytest.raises(ChainDivergedError) as err:
                    coupled_bound_trial(model, op.joint(), eff.joint(), cfg, seed)
                per_seed.append(err.value.diagnostics)
            # the named chain, run alone on its seed's dataset, diverges at that
            # step, and its partner later
            datasets = {"true": sample_dataset(op.joint(), 1000, seed=1),
                        "truncated": sample_dataset(eff.joint(), 1000, seed=1 + 1_000_003)}
            w_star = fit_model(model, datasets["true"]).w
            steps = {}
            for chain, dataset in datasets.items():
                with pytest.raises(ChainDivergedError) as err:
                    run_chain(SoftmaxTarget(model, dataset), w_star,
                              replace(cfg, seed=1, burn_in=0.0))
                steps[chain] = err.value.diagnostics["step"]
        earliest = {"step": 940, "seed": 1, "chain": "truncated"}
        assert min(per_seed, key=lambda d: (d["step"], d["seed"])) == earliest
        assert [d["step"] for d in per_seed] == [941, 940, 940, 940, 941, 941]
        assert steps == {"true": 941, "truncated": 940}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = tmp_path / "couple"
            assert main(["couple", "--config", str(config), "--out", str(out)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "coupled_report.json").exists()
        failure = json.loads((out / "numerical_failure.json").read_text())
        assert failure["diagnostics"] == earliest
        assert failure["error"] == "non-finite state in the truncated chain of seed 1 at step 940"
        assert f"numerical failure: {failure['error']}" in capsys.readouterr().err

    def test_couple_zero_seeds_exit_2(self, fixture_language, tmp_path, capsys):
        code = main(["couple", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--chi", "1", "--n-seeds", "0", "--out", str(tmp_path / "couple")])
        assert code == 2
        assert "input error: n_seeds must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("min_count, code", [("1", 0), ("2", 2)])
    def test_llc_needs_full_product_space(self, tmp_path, capsys, min_count, code):
        # at min_count 2 the context (2,) is filtered away
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("#alphabet 3\n0 1 0 1 0 1 0 2 0\n")
        assert main(["ingest", "--corpus", str(corpus), "--k", "1", "--l", "1", "--min-count",
                     min_count, "--out", str(tmp_path / "counts")]) == 0
        assert main(["llc", "--counts", str(tmp_path / "counts" / "counts.tsv"), "--k", "1",
                     "--l", "1", "--n", "200", "--chains", "1", "--T", "10",
                     "--out", str(tmp_path / "llc")]) == code
        assert ("full product space" in capsys.readouterr().err) == (code == 2)

    def test_llc_negative_n_exit_2(self, fixture_language, tmp_path, capsys):
        code = main(["llc", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--n", "-5", "--out", str(tmp_path / "llc")])
        assert code == 2
        assert "input error: n must be at least 1, got -5" in capsys.readouterr().err

    def test_diverged_chain_exit_4(self, tmp_path, capsys):
        lang = tmp_path / "lang.json"
        lang.write_text(language_to_json(random_language(5, 3, 2)))
        out = tmp_path / "llc"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["llc", "--language", str(lang), "--k", "1", "--l", "1",
                         "--epsilon", "10", "--T", "1000", "--chains", "3", "--n", "1000",
                         "--out", str(out)])
        assert code == 4
        failure = json.loads((out / "numerical_failure.json").read_text())
        step = failure["diagnostics"]["step"]
        assert failure["diagnostics"] == {"step": step, "row": 0} and step > 1
        assert failure["error"] == f"non-finite state in chain 0 at step {step}"
        assert f"numerical failure: {failure['error']}" in capsys.readouterr().err
        assert not (out / "llc_estimate.json").exists()

    def test_couple_zero_n_exit_2(self, fixture_language, tmp_path, capsys):
        code = main(["couple", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--chi", "1", "--n", "0", "--out", str(tmp_path / "couple")])
        assert code == 2
        assert "input error: n must be at least 1, got 0" in capsys.readouterr().err


# (config fields, artifacts with the headline artifact first) per command;
# "CORPUS" and "LANGUAGE" stand for the fixture paths
COMMANDS = {
    "ingest": ({"corpus": "CORPUS", "k": 1, "l": 1}, ["counts.tsv", "ingest_meta.json"]),
    "decompose": ({"language": "LANGUAGE", "k": 1, "l": 1, "dense": True},
                  ["decomposition.json", "decomposition_dense.json", "top_loadings.txt"]),
    "truncate": ({"language": "LANGUAGE", "k": 1, "l": 1, "chi": 1},
                 ["effective.tsv", "truncation_provenance.json"]),
    "llc": ({"language": "LANGUAGE", "k": 1, "l": 1, "n": 300, "chains": 1, "T": 20},
            ["llc_estimate.json", "trace_chain0.csv"]),
    "couple": ({"language": "LANGUAGE", "k": 1, "l": 1, "chi": 1, "n": 300, "T": 20},
               ["coupled_report.json", "coupled_trace.csv"]),
    "bounds": ({"A": 1, "B": 0.01, "Q": 5, "M": 20, "n": 1000, "beta": 0.01, "gamma": 300,
                "epsilon": 1e-4, "T": 100}, ["bounds.json", "bound_table.csv"]),
    "examples": ({"corpus": "CORPUS", "language": "LANGUAGE", "k": 1, "l": 1, "window": 2},
                 ["contextual_examples.txt"]),
}


class TestCommandProtocol:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_from_config_holds_every_artifact(self, command, fixture_corpus,
                                                   fixture_language, tmp_path, monkeypatch,
                                                   capsys):
        fields, artifacts = COMMANDS[command]
        paths = {"CORPUS": str(fixture_corpus), "LANGUAGE": str(fixture_language)}
        out = tmp_path / "run"
        config = tmp_path / "cfg.json"
        fields = {key: paths.get(value, value) for key, value in fields.items()}
        config.write_text(json.dumps({**fields, "out": str(out)}))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([command, "--config", str(config)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(artifacts + ["resolved_config.json"])
        assert list(cwd.iterdir()) == []
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["command"], resolved["seed"], resolved["out"]) == (command, 0, str(out))
        assert capsys.readouterr().out.endswith(f"wrote {out / artifacts[0]}\n")

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object, not list"),
        ('{"language": "LANGUAGE", "k": "one", "l": 1}', "config field 'k' must be int, got 'one'"),
        ('{"language": "LANGUAGE", "k": Infinity, "l": 1}', "config field 'k' must be int, got inf"),
    ], ids=["invalid_json", "json_array", "k_not_int", "k_infinite"])
    def test_malformed_config_exit_2(self, fixture_language, tmp_path, capsys, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text.replace("LANGUAGE", str(fixture_language)))
        code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "dec")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: config") and message in err

    @pytest.mark.parametrize("command, key, value, kind", [
        ("decompose", "k", 1.9, "int"), ("truncate", "chi", True, "int"),
        ("llc", "n", 2.7, "int"), ("llc", "epsilon", True, "float"),
        ("bounds", "M", "20", "float"), ("llc", "pinned", "false", "bool"),
        ("decompose", "dense", "false", "bool"),
    ])
    def test_config_value_of_wrong_json_type_exit_2(self, fixture_corpus, fixture_language,
                                                    tmp_path, capsys, command, key, value,
                                                    kind):
        # int() and float() would accept each of these, and bool() any non-empty string
        fields, _ = COMMANDS[command]
        paths = {"CORPUS": str(fixture_corpus), "LANGUAGE": str(fixture_language)}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**{name: paths.get(v, v) for name, v in fields.items()},
                                      key: value}))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert (f"input error: config field {key!r} must be {kind}, got {value!r}"
                in capsys.readouterr().err)
        assert not (out / "decomposition_dense.json").exists()


class TestInputErrors:
    def test_low_rank_without_rank_exit_2(self, fixture_language, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "language": str(fixture_language), "k": 1, "l": 1, "chi": 1,
            "n": 500, "T": 20, "epsilon": 1e-3, "gamma": 2.5,
            "parametrization": "low_rank",
        }))
        for command in ("llc", "couple"):
            code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
            assert code == 2
            assert "input error: low_rank requires a positive rank" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ModeError("operator has no modes"),
                                       MemoryError("Unable to allocate 11.9 GiB")],
                             ids=["ModeError", "MemoryError"])
    def test_decomposition_failure_exit_2(self, fixture_language, tmp_path, capsys,
                                          monkeypatch, error):
        def fail(op):
            raise error

        monkeypatch.setattr(cli, "weighted_svd", fail)
        code = main(["decompose", "--language", str(fixture_language), "--k", "1",
                     "--l", "1", "--out", str(tmp_path / "dec")])
        assert code == 2
        assert f"input error: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_not_a_directory_exit_2(self, fixture_language, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("x")
        out = afile / "sub" if below else afile
        code = main(["decompose", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--out", str(out)])
        assert code == 2
        assert f"input error: out {out} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("llc", "epsilon", "nan"), ("llc", "epsilon", "inf"), ("llc", "beta", "nan"),
        ("llc", "beta", "inf"), ("llc", "gamma", "nan"), ("llc", "gamma", "inf"),
        ("bounds", "A", "nan"),
    ])
    def test_non_finite_float_exit_2(self, fixture_language, tmp_path, capsys,
                                     command, flag, value):
        fields = {"llc": {"language": str(fixture_language), "k": "1", "l": "1", "n": "300",
                          "T": "20", "chains": "1"},
                  "bounds": {"A": "1", "B": "0.01", "Q": "5", "M": "20", "n": "1000"}}[command]
        fields[flag] = value
        out = tmp_path / "out"
        code = main([command, *(arg for key, val in fields.items() for arg in (f"--{key}", val)),
                     "--out", str(out)])
        assert code == 2
        assert (f"input error: config field {flag!r} must be finite, got {float(value)!r}"
                in capsys.readouterr().err)
        assert sorted(path.name for path in out.iterdir()) == ["resolved_config.json"]

    @pytest.mark.parametrize("payload, message", [
        ("{}", "'alphabet_size' must be an integer >= 1, got None"),
        ("[]", "a language must be a JSON object, not list"),
        ('{"alphabet_size": 2, "K": true, "probabilities": [0.5, 0.5]}',
         "'K' must be an integer >= 1, got True"),
        ('{"alphabet_size": 2, "K": 2, "probabilities": [0.5, 0.5]}',
         "'probabilities' must be a list of 2^2 numbers"),
        ('{"alphabet_size": "x", "K": 2, "probabilities": [0.25, 0.25, 0.25, 0.25]}',
         "'alphabet_size' must be an integer >= 1, got 'x'"),
        ('{"alphabet_size": 2, "K": 2, "probabilities": "abc"}',
         "'probabilities' must be a list of 2^2 numbers"),
        ('{"alphabet_size": 2, "K": 2, "probabilities": [0.25, 0.25, 0.25, 0.25], '
         '"positivity_relaxed": "no"}', "'positivity_relaxed' must be true or false, got 'no'"),
        ('{"alphabet_size": 1, "K": 70, "probabilities": [1.0]}',
         "'K' must be at most 64, got 70"),
    ], ids=["empty_object", "array", "K_bool", "short_probabilities", "size_not_int",
            "probabilities_string", "relaxed_string", "K_above_array_limit"])
    def test_language_payload_not_a_language_exit_2(self, tmp_path, capsys, payload, message):
        path = tmp_path / "lang.json"
        path.write_text(payload)
        code = main(["decompose", "--language", str(path), "--k", "1", "--l", "1",
                     "--out", str(tmp_path / "dec")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["directory", "empty", "not_utf8"])
    @pytest.mark.parametrize("flag", ["language", "counts", "corpus"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, flag, content):
        path = tmp_path / "input"
        if content == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"" if content == "empty" else b"\xff\xfe")
        command = "ingest" if flag == "corpus" else "decompose"
        code = main([command, f"--{flag}", str(path), "--k", "1", "--l", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["input", "out"])
    def test_os_error_exit_2_names_path(self, fixture_language, tmp_path, capsys, monkeypatch,
                                        where):
        # what a user who is not root meets on a file or directory without permission
        out = tmp_path / "dec"
        denied = fixture_language if where == "input" else out
        method = "read_text" if where == "input" else "mkdir"
        original = getattr(Path, method)

        def refuse(self, *args, **kwargs):
            if self == denied:
                raise PermissionError(13, "Permission denied", str(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, refuse)
        code = main(["decompose", "--language", str(fixture_language), "--k", "1", "--l", "1",
                     "--out", str(out)])
        assert code == 2
        assert (f"input error: [Errno 13] Permission denied: '{denied}'"
                in capsys.readouterr().err)


def _command_fields() -> dict[str, dict]:
    """Config field -> type for every typed flag of every command of the parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: p.get_default("kinds") for name, p in sub.choices.items()}


COMMAND_FIELDS = _command_fields()
WRONG_TYPE = {int: [1.5, True, "1"], float: ["1", True], bool: ["false", 1]}


@pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
def test_every_path_flag_and_typed_field(command, fixture_corpus, fixture_language, tmp_path,
                                         capsys):
    """Exit codes for bad paths, wrong-typed config fields and a bad out, from the parser."""
    assert set(COMMAND_FIELDS) == set(COMMANDS)
    kinds = COMMAND_FIELDS[command]
    good = {"CORPUS": str(fixture_corpus), "LANGUAGE": str(fixture_language)}
    base = {key: good.get(value, value) for key, value in COMMANDS[command][0].items()}
    config = tmp_path / "cfg.json"
    out = tmp_path / "out"

    def run(fields, *argv):
        config.write_text(json.dumps(fields))
        code = main([command, "--config", str(config), "--out", str(out), *argv])
        return code, capsys.readouterr().err

    bad = tmp_path / "bad"
    bad.mkdir()
    inputs = {"missing": None, "directory": None, "empty": b"", "not_utf8": b"\xff\xfe"}
    for flag in ["config", *(key for key in ("corpus", "counts", "language") if key in kinds)]:
        for content, data in inputs.items():
            path = bad / f"{flag}-{content}"
            if content == "directory":
                path.mkdir()
            elif data is not None:
                path.write_bytes(data)
            if flag == "config":
                code = main([command, "--config", str(path), "--out", str(out)])
                err = capsys.readouterr().err
            else:
                code, err = run(base, f"--{flag}", str(path))
            assert code == (3 if content == "missing" else 2), (flag, content, err)
            assert str(path) in err, (flag, content, err)

    for key, kind in kinds.items():
        for value in WRONG_TYPE.get(kind, []):
            code, err = run({**base, key: value})
            assert code == 2, (key, value, err)
            assert f"config field {key!r} must be {kind.__name__}, got {value!r}" in err

    afile = tmp_path / "afile"
    afile.write_text("x")
    for target in (afile, afile / "sub"):
        code, err = run(base, "--out", str(target))  # the last --out wins
        assert code == 2 and f"input error: out {target} is not a directory" in err


GOOD_COUNTS = "#k 1\n#l 1\n#alphabet 3\n0\t1\t2\n1\t2\t1\n"


class TestCorpusInputErrors:
    def decompose(self, tmp_path, text):
        path = tmp_path / "counts.tsv"
        path.write_text(text)
        return main(["decompose", "--counts", str(path), "--out", str(tmp_path / "dec")])

    def test_good_table_decomposes(self, tmp_path):
        assert self.decompose(tmp_path, GOOD_COUNTS) == 0

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        assert self.decompose(tmp_path, GOOD_COUNTS + "0,1\t2\t3\n") == 2
        assert "counts.tsv:6: malformed count row" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["#k 1\n", "#l 1\n", "#alphabet 3\n"])
    def test_missing_header_exit_2(self, tmp_path, capsys, header):
        assert self.decompose(tmp_path, GOOD_COUNTS.replace(header, "")) == 2
        assert f"missing {header.split()[0]} header" in capsys.readouterr().err

    def test_alphabet_too_large_for_codes_exit_2(self, tmp_path, capsys):
        huge = f"#k 2\n#l 1\n#alphabet {2**32}\n0,0\t1\t2\n1,1\t2\t1\n"
        assert self.decompose(tmp_path, huge) == 2
        assert "64-bit codes" in capsys.readouterr().err
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"#alphabet {2**32}\n0 1 2\n")
        code = main(["ingest", "--corpus", str(corpus), "--k", "2", "--l", "1",
                     "--out", str(tmp_path / "ing")])
        assert code == 2
        assert "64-bit codes" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0661", "-1", "1" * 19])
    def test_token_not_plain_digits_exit_2(self, tmp_path, capsys, token):
        # int() accepts the first three; a token id is ASCII digits below 10^18
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"#alphabet 3\n0 1 2\n2 {token} 0\n", encoding="utf-8")
        code = main(["ingest", "--corpus", str(corpus), "--k", "1", "--l", "1",
                     "--out", str(tmp_path / "ing")])
        assert code == 2
        assert f"{corpus}:3: bad token id" in capsys.readouterr().err


class TestBounds:
    def test_table_written(self, tmp_path):
        out = tmp_path / "b"
        code = main(["bounds", "--A", "1", "--B", "0.01", "--Q", "5", "--M", "20",
                     "--n", "1000", "--beta", "0.01", "--gamma", "300",
                     "--epsilon", "1e-4", "--T", "100", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["mu"] == pytest.approx(0.995)
        assert payload["estimator_difference_bound"] == pytest.approx(5.2)

    def test_g_column_is_bound_g(self, tmp_path):
        # nβ = 10, γ = 300, ε = 1e-4, T = 100, M = 20, A = 1: a configuration on
        # which a scalar evaluation of g(t, A) through Python's float power
        # differs in the last bits from the array evaluation at t = 3, 15, 29,
        # 49 and 63. The table and every bound_g call must agree exactly.
        out = tmp_path / "b"
        code = main(["bounds", "--A", "1", "--B", "0.01", "--Q", "5", "--M", "20",
                     "--n", "1000", "--beta", "0.01", "--gamma", "300",
                     "--epsilon", "1e-4", "--T", "100", "--out", str(out)])
        assert code == 0
        rows = (out / "bound_table.csv").read_text().splitlines()
        assert rows[0] == "t,g"
        table = [float(row.split(",")[1]) for row in rows[1:]]
        cfg = SGLDConfig(n=1000, beta=0.01, gamma=300.0, m=1000, T=100, epsilon=1e-4)
        series = bound_g(np.arange(1, 101), 1.0, 0.0, cfg, 20.0)
        assert [f"{v:.17g}" for v in table] == [f"{v:.17g}" for v in series]
        assert all(table[t - 1] == bound_g(t, 1.0, 0.0, cfg, 20.0) for t in range(1, 101))
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["g_final"] == table[-1]

    def test_zero_n_exit_2(self, tmp_path, capsys):
        code = main(["bounds", "--A", "1", "--B", "0.01", "--Q", "5", "--M", "20",
                     "--n", "0", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "input error: n must be at least 1, got 0" in capsys.readouterr().err

    def test_window_violation_exit_2(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["bounds", "--A", "1", "--B", "0.01", "--Q", "5", "--M", "40",
                     "--n", "1000", "--beta", "0.01", "--gamma", "300",
                     "--epsilon", "1e-4", "--T", "100", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "must lie in" in captured.out + captured.err


class TestExamples:
    def test_examples_written(self, fixture_corpus, tmp_path):
        counts_out = tmp_path / "counts"
        assert main(["ingest", "--corpus", str(fixture_corpus), "--k", "1", "--l", "1",
                     "--out", str(counts_out)]) == 0
        out = tmp_path / "ex"
        code = main(["examples", "--corpus", str(fixture_corpus),
                     "--counts", str(counts_out / "counts.tsv"),
                     "--component", "0", "--window", "3", "--out", str(out)])
        assert code == 0
        text = (out / "contextual_examples.txt").read_text()
        assert text.startswith("component 0:")

    @pytest.mark.parametrize("fields, message", [
        ({"window": -5}, "window must be at least 0, got -5"),
        ({"max_examples": -1}, "max_examples must be at least 0, got -1"),
    ], ids=["window", "max_examples"])
    def test_negative_window_or_max_examples_exit_2(self, fixture_corpus, fixture_language,
                                                    tmp_path, capsys, fields, message):
        # a negative window slices the after-context from the end of the corpus;
        # a negative max_examples drops examples from the end of the list
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(fields))
        code = main(["examples", "--corpus", str(fixture_corpus), "--language",
                     str(fixture_language), "--k", "1", "--l", "1", "--config", str(config),
                     "--out", str(tmp_path / "ex")])
        assert code == 2
        assert f"input error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ex" / "contextual_examples.txt").exists()

    def test_leading_component_skips_dense_svd(self, fixture_corpus, tmp_path, monkeypatch):
        counts_out = tmp_path / "counts"
        assert main(["ingest", "--corpus", str(fixture_corpus), "--k", "1", "--l", "1",
                     "--out", str(counts_out)]) == 0

        def fail(op):
            raise AssertionError("component 0 needs only the leading triple")

        monkeypatch.setattr(cli, "weighted_svd", fail)
        code = main(["examples", "--corpus", str(fixture_corpus),
                     "--counts", str(counts_out / "counts.tsv"),
                     "--component", "0", "--out", str(tmp_path / "ex")])
        assert code == 0

    def test_component_without_left_vector_exit_2(self, tmp_path, capsys):
        # three contexts, two continuations: component 2 is a kernel mode
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("#alphabet 3\n0 1 0\n2 1\n")
        assert main(["ingest", "--corpus", str(corpus), "--k", "1", "--l", "1",
                     "--out", str(tmp_path / "counts")]) == 0
        code = main(["examples", "--corpus", str(corpus),
                     "--counts", str(tmp_path / "counts" / "counts.tsv"),
                     "--component", "2", "--out", str(tmp_path / "ex")])
        assert code == 2
        assert "input error: component 2 has no left vector" in capsys.readouterr().err


class TestPipelineDeterminism:
    def run_pipeline(self, corpus, lang, root: Path) -> dict[str, bytes]:
        steps = [
            (["ingest", "--corpus", str(corpus), "--k", "1", "--l", "1",
              "--out", str(root / "counts"), "--seed", "11"], "counts/counts.tsv"),
            (["decompose", "--counts", str(root / "counts" / "counts.tsv"),
              "--lambda-smooth", "1e-5", "--out", str(root / "dec"), "--seed", "11"],
             "dec/decomposition.json"),
            (["truncate", "--language", str(lang), "--k", "1", "--l", "1", "--chi", "1",
              "--solver", "kl", "--out", str(root / "tr"), "--seed", "11"],
             "tr/effective.tsv"),
            (["llc", "--language", str(lang), "--k", "1", "--l", "1", "--n", "1500",
              "--chains", "2", "--T", "150", "--epsilon", "1e-3", "--gamma", "2.5",
              "--out", str(root / "llc"), "--seed", "11"], "llc/llc_estimate.json"),
            (["couple", "--language", str(lang), "--k", "1", "--l", "1", "--chi", "1",
              "--n", "1500", "--T", "100", "--epsilon", "1e-3", "--gamma", "2.5",
              "--out", str(root / "couple"), "--seed", "11"], "couple/coupled_report.json"),
            (["bounds", "--A", "0.2", "--B", "0.4", "--Q", "0.3", "--M", "0.2",
              "--n", "1500", "--beta", "0.006666", "--gamma", "2.5",
              "--epsilon", "1e-3", "--T", "100", "--out", str(root / "bounds"),
              "--seed", "11"], "bounds/bounds.json"),
            (["examples", "--corpus", str(corpus),
              "--counts", str(root / "counts" / "counts.tsv"), "--component", "0",
              "--window", "2", "--out", str(root / "ex"), "--seed", "11"],
             "ex/contextual_examples.txt"),
        ]
        outputs = {}
        for argv, artifact in steps:
            assert main(argv) == 0, argv
            outputs[artifact] = (root / artifact).read_bytes()
            outputs[artifact.rsplit("/", 1)[0] + "/resolved_config.json"] = (
                root / artifact.rsplit("/", 1)[0] / "resolved_config.json"
            ).read_bytes()
        return outputs

    def test_end_to_end_bit_identical(self, fixture_corpus, fixture_language, tmp_path):
        run1 = self.run_pipeline(fixture_corpus, fixture_language, tmp_path / "r1")
        run2 = self.run_pipeline(fixture_corpus, fixture_language, tmp_path / "r2")
        assert set(run1) == set(run2)
        for name in run1:
            if name.endswith("resolved_config.json"):
                continue  # contains the differing --out path by design
            assert run1[name] == run2[name], name


def _fresh_python(code: str, *args: str, **env: str) -> str:
    """The last line that ``python -c code args`` prints, run on this source tree
    with the environment variables ``env`` added."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, env={**os.environ, **env, "PYTHONPATH": str(src)})
    return out.stdout.strip().splitlines()[-1]


# runs main() on the arguments, then prints its exit code and the scipy modules loaded
_RUN_CLI = ("import json, sys; from seqmodes.cli import main; code = main(sys.argv[1:]); "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(json.dumps([code, loaded]))")


class TestImportFootprint:
    def test_cli_does_not_import_scipy_optimize(self):
        # Importing scipy.optimize takes ~0.25 s, which every CLI start would pay.
        code = "import sys, seqmodes.cli; print('scipy.optimize' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_import_loads_neither_sparse_nor_linalg(self):
        # scipy.sparse and scipy.linalg are about 0.15 s and 25 MiB of a start-up
        code = ("import sys, seqmodes, seqmodes.cli; "
                "print([m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules])")
        assert _fresh_python(code) == "[]"

    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus", "CORPUS", "--k", "1", "--l", "1"],
        ["truncate", "--language", "LANG", "--k", "1", "--l", "1", "--chi", "1"],
        ["truncate", "--language", "LANG", "--k", "1", "--l", "1", "--chi", "1",
         "--solver", "normalized"],
        ["decompose", "--language", "LANG", "--k", "1", "--l", "1"],
        ["llc", "--language", "LANG", "--k", "1", "--l", "1", "--n", "500", "--m", "50",
         "--chains", "2", "--T", "40"],
        ["couple", "--language", "LANG", "--k", "1", "--l", "1", "--chi", "1", "--n", "2000",
         "--T", "40"],
        ["bounds", "--A", "1", "--B", "0.01", "--Q", "5", "--M", "20", "--n", "1000",
         "--beta", "0.01", "--gamma", "300", "--epsilon", "1e-4", "--T", "20"],
    ], ids=["ingest", "truncate-kl", "truncate-normalized", "decompose-dense", "llc", "couple",
            "bounds"])
    def test_numpy_commands_load_no_scipy(self, argv, fixture_corpus, fixture_language,
                                          tmp_path):
        paths = {"CORPUS": str(fixture_corpus), "LANG": str(fixture_language)}
        argv = [paths.get(arg, arg) for arg in argv]
        code, loaded = json.loads(_fresh_python(_RUN_CLI, *argv, "--out", str(tmp_path / "o")))
        assert code == 0
        assert loaded == []

    def test_truncated_svd_loads_sparse_linalg(self, tmp_path):
        # rank 3 of 12 takes the svds path, whose import is deferred to the call
        path = tmp_path / "language.json"
        path.write_text(language_to_json(random_doubly_stochastic_language(5, 12)))
        argv = ["decompose", "--language", str(path), "--k", "1", "--l", "1", "--rank", "3"]
        code, loaded = json.loads(_fresh_python(_RUN_CLI, *argv, "--out", str(tmp_path / "d")))
        assert code == 0
        assert "scipy.sparse.linalg" in loaded


def test_kl_truncation_is_stable_at_each_blas_thread_count(tmp_path):
    # the README's contract: the same bytes at the same BLAS thread count
    path = tmp_path / "language.json"
    path.write_text(language_to_json(random_doubly_stochastic_language(5, 20)))
    argv = ["truncate", "--language", str(path), "--k", "1", "--l", "1", "--chi", "8",
            "--solver", "kl"]
    for threads in ("1", "2"):
        runs = []
        for run in range(2):
            out = tmp_path / f"t{threads}_{run}"
            code, _ = json.loads(_fresh_python(_RUN_CLI, *argv, "--out", str(out),
                                               OPENBLAS_NUM_THREADS=threads))
            assert code == 0
            runs.append((out / "effective.tsv").read_bytes())
        assert runs[0] == runs[1], threads
