import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mteval
from mteval import BleuConfig, EbleuConfig, TokenizerConfig, cli, read_score_table
from mteval.cli import main
from mteval.errors import TableFormatError
from mteval.stats import ScoreTable, correlation_matrix
from helpers import recorded_calls


@pytest.fixture
def exam_files(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    lex = tmp_path / "syn.txt"
    hyp.write_text("this is a exam\n", encoding="utf-8")
    ref.write_text("this is a quiz\n", encoding="utf-8")
    lex.write_text("exam, test, quiz, examination\n", encoding="utf-8")
    return hyp, ref, lex


@pytest.fixture
def identical_files(tmp_path):
    hyp = tmp_path / "same_hyp.txt"
    ref = tmp_path / "same_ref.txt"
    text = "the quick brown fox jumps over\n"
    hyp.write_text(text, encoding="utf-8")
    ref.write_text(text, encoding="utf-8")
    return hyp, ref


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def strict_json(output: str):
    """Parse ``output``, failing on the NaN/Infinity extensions to JSON."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(output, parse_constant=reject)


ALL_METRICS = ("ebleu", "bleu", "nist", "ter", "meteor", "lepor", "ribes")


@pytest.fixture
def two_pair_files(tmp_path):
    hyp = tmp_path / "hyp2.txt"
    ref = tmp_path / "ref2.txt"
    lex = tmp_path / "syn2.txt"
    hyp.write_text("this is a exam\nthe cat sat on mat the\n", encoding="utf-8")
    ref.write_text("this is a quiz\nthe cat sat on the mat\n", encoding="utf-8")
    lex.write_text("exam, test, quiz, examination\n", encoding="utf-8")
    return hyp, ref, lex


# The metrics that read none of the scorer options.
OPTION_FREE_METRICS = ("nist", "ter", "meteor", "lepor", "ribes")

# scorer option -> the EbleuConfig field its usage error names
OPTION_FIELDS = {
    "--epsilon": "smoothing_epsilon",
    "--synonym-score": "synonym_score",
    "--rare-words-percent": "rare_words_percent",
    "--rare-words-score": "rare_words_score",
    "--max-ngram": "max_order",
}


def assert_config_rejected(capsys, tmp_path, argv, flag, value) -> str:
    """``score argv flag value`` exits 2 with one ``usage error:`` line
    naming the option's field, in tsv and in json, writing nothing to
    stdout and no ``--out`` file; returns the last error line."""
    for fmt in ("tsv", "json"):
        for out in (None, tmp_path / f"rejected.{fmt}"):
            run = ["score", *argv, flag, value, "--format", fmt]
            run += ["--out", str(out)] if out else []
            assert main(run) == 2, run
            captured = capsys.readouterr()
            assert captured.out == "", run
            assert captured.err.startswith("usage error: "), run
            assert captured.err.count("\n") == 1, run
            assert OPTION_FIELDS[flag] in captured.err, run
            assert out is None or not out.exists(), run
    return captured.err


def tsv_scores(output: str) -> dict[str, float]:
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    header, row = lines[0].split("\t"), lines[1].split("\t")
    return dict(zip(header, (float(cell) for cell in row)))


class TestScoreCommand:
    def test_identical_bleu_reads_100(self, capsys, identical_files):
        hyp, ref = identical_files
        code, out = run_cli(
            capsys, "score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)
        )
        assert code == 0
        assert tsv_scores(out)["BLEU"] == 100.00

    def test_synonym_example_reads_97_50(self, capsys, exam_files):
        hyp, ref, lex = exam_files
        code, out = run_cli(
            capsys,
            "score",
            "--metric", "ebleu",
            "--hyp", str(hyp),
            "--ref", str(ref),
            "--lexicon", str(lex),
            "--max-ngram", "1",
            "--synonym-score", "0.9",
            "--rare-words-score", "1.0",
        )
        assert code == 0
        assert tsv_scores(out)["EBLEU"] == 97.50

    def test_identical_ter_reads_zero(self, capsys, identical_files):
        hyp, ref = identical_files
        code, out = run_cli(
            capsys, "score", "--metric", "ter", "--hyp", str(hyp), "--ref", str(ref)
        )
        assert code == 0
        assert tsv_scores(out)["TER"] == 0.00

    @pytest.fixture
    def empty_ref_files(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        ref.write_text("\n", encoding="utf-8")
        return hyp, ref

    def test_json_writes_null_for_undefined_ter(self, capsys, empty_ref_files):
        hyp, ref = empty_ref_files
        code, out = run_cli(
            capsys,
            "score", "--metric", "ter", "--hyp", str(hyp), "--ref", str(ref),
            "--format", "json", "--per-sentence",
        )
        assert code == 0
        ter = strict_json(out)["metrics"]["ter"]
        assert ter["score"] is None
        assert ter["per_sentence"] == [None]

    def test_tsv_keeps_undefined_ter_as_inf(self, capsys, empty_ref_files):
        hyp, ref = empty_ref_files
        code, out = run_cli(
            capsys, "score", "--metric", "ter", "--hyp", str(hyp), "--ref", str(ref)
        )
        assert code == 0
        assert tsv_scores(out)["TER"] == math.inf

    def test_json_carries_raw_scores(self, capsys, identical_files):
        hyp, ref = identical_files
        code, out = run_cli(
            capsys,
            "score",
            "--metric", "bleu",
            "--metric", "lepor",
            "--hyp", str(hyp),
            "--ref", str(ref),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["bleu"]["score"] == pytest.approx(1.0)
        assert payload["metrics"]["lepor"]["score"] == pytest.approx(1.0)
        assert payload["corpus"]["pairs"] == 1

    def test_tsv_is_json_times_100_except_nist(self, capsys, two_pair_files):
        hyp, ref, lex = two_pair_files
        args = (
            "score",
            *(arg for name in ALL_METRICS for arg in ("--metric", name)),
            "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lex),
            "--max-ngram", "2", "--per-sentence",
        )
        code, tsv_out = run_cli(capsys, *args)
        assert code == 0
        code, json_out = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        lines = tsv_out.splitlines()
        marker = lines.index("# per-sentence")
        header, corpus_row = [ln for ln in lines[:marker] if not ln.startswith("#")]
        assert header.split("\t") == [name.upper() for name in ALL_METRICS]
        shown = [row.split("\t") for row in [corpus_row, *lines[marker + 1 :]]]
        assert len(shown) == 3
        raw = json.loads(json_out)["metrics"]
        for col, name in enumerate(ALL_METRICS):
            scale = 1 if name == "nist" else 100
            expected = [raw[name]["score"], *raw[name]["per_sentence"]]
            assert [float(row[col]) for row in shown] == [
                round(scale * value, 2) for value in expected
            ]

    def test_per_sentence_rows(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c\nx y\n", encoding="utf-8")
        ref.write_text("a b c\nx q\n", encoding="utf-8")
        code, out = run_cli(
            capsys,
            "score",
            "--metric", "bleu", "--metric", "ribes",
            "--hyp", str(hyp), "--ref", str(ref),
            "--max-ngram", "2",
            "--per-sentence",
        )
        assert code == 0
        marker = out.index("# per-sentence")
        sentence_rows = [
            ln for ln in out[marker:].splitlines()[1:] if ln and not ln.startswith("#")
        ]
        assert len(sentence_rows) == 2

    def test_runs_are_byte_identical(self, tmp_path, exam_files):
        hyp, ref, lex = exam_files
        outputs = []
        for name in ("first.json", "second.json"):
            out_path = tmp_path / name
            code = main(
                [
                    "score",
                    "--metric", "ebleu", "--metric", "ter",
                    "--hyp", str(hyp), "--ref", str(ref),
                    "--lexicon", str(lex),
                    "--format", "json",
                    "--per-sentence",
                    "--out", str(out_path),
                ]
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lowercase_and_split_punct_flags(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("The cat.\n", encoding="utf-8")
        ref.write_text("the cat .\n", encoding="utf-8")
        code, out = run_cli(
            capsys,
            "score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref),
            "--max-ngram", "2", "--lowercase", "--split-punct",
        )
        assert code == 0
        assert tsv_scores(out)["BLEU"] == 100.00

    def test_multiple_references(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref1 = tmp_path / "ref1.txt"
        ref2 = tmp_path / "ref2.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        ref1.write_text("w x y z\n", encoding="utf-8")
        ref2.write_text("a b c d\n", encoding="utf-8")
        code, out = run_cli(
            capsys,
            "score", "--metric", "bleu",
            "--hyp", str(hyp), "--ref", str(ref1), "--ref", str(ref2),
        )
        assert code == 0
        assert tsv_scores(out)["BLEU"] == 100.00

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("names", [("r0",), ("r0", "r1"), ("r0", "r0"), ("r0", "r1", "r0")])
    def test_echoed_ref_count_is_the_number_of_ref_flags(self, capsys, tmp_path, names, fmt):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b\nc\n", encoding="utf-8")
        refs = []
        for name in names:  # a file given twice is written twice, the same
            refs += ["--ref", str(tmp_path / f"{name}.txt")]
            Path(refs[-1]).write_text("a b\nc d\n", encoding="utf-8")
        code, out = run_cli(
            capsys, "score", "--metric", "bleu", "--hyp", str(hyp), *refs, "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            assert strict_json(out)["corpus"]["ref_count"] == len(names)
        else:
            assert out.split("\n")[0].split()[2] == f"ref_count={len(names)}"

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n", encoding="utf-8")
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(tmp_path / "nope.txt"),
             "--ref", str(ref)]
        )
        assert code == 1

    def test_line_count_mismatch_is_data_error(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\nb\n", encoding="utf-8")
        ref.write_text("a\n", encoding="utf-8")
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert code == 1

    def test_unicode_line_separator_does_not_split_a_pair(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat\x85sat\nhello world\n", encoding="utf-8")
        ref.write_text("the cat sat\nhello\x85world\n", encoding="utf-8")
        code, out = run_cli(
            capsys, "score", "--metric", "bleu", "--max-ngram", "2",
            "--hyp", str(hyp), "--ref", str(ref),
        )
        assert code == 0
        assert "pairs=2" in out
        assert tsv_scores(out)["BLEU"] == 100.00

    def test_max_ngram_help_names_the_metrics_it_sets(self, capsys):
        with pytest.raises(SystemExit):
            main(["score", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "BLEU and EBLEU only; NIST always uses order 5" in help_text

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_non_integer_max_ngram_is_usage_error(self, capsys, identical_files, value):
        hyp, ref = identical_files
        with pytest.raises(SystemExit) as exc:
            main(["score", "--metric", "nist", "--hyp", str(hyp), "--ref", str(ref),
                  "--max-ngram", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-ngram: invalid int value: '{value}'" in err

    def test_unknown_metric_is_usage_error(self, identical_files):
        hyp, ref = identical_files
        with pytest.raises(SystemExit) as exc:
            main(["score", "--metric", "bogus", "--hyp", str(hyp), "--ref", str(ref)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("metric", ["ebleu", "meteor"])
    def test_ebleu_without_lexicon_is_usage_error(
        self, capsys, identical_files, metric
    ):
        hyp, ref = identical_files
        code = main(
            ["score", "--metric", metric, "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert code == 2
        assert "--lexicon is required" in capsys.readouterr().err

    @pytest.mark.parametrize("per_sentence", [False, True])
    def test_scorers_are_looked_up_when_called(
        self, monkeypatch, tmp_path, two_pair_files, per_sentence
    ):
        # The benchmark's trace swaps these module attributes for timing
        # wrappers, so every call must go through them. Each scorer runs
        # once, on the whole corpus, and fills the per-sentence scores
        # from that same pass.
        calls = {}
        for name in ALL_METRICS:
            scorer = getattr(cli, f"{name}_score")

            def counting(corpus, *rest, scorer=scorer, name=name, **kwargs):
                calls.setdefault(name, []).append(len(corpus))
                return scorer(corpus, *rest, **kwargs)

            monkeypatch.setattr(cli, f"{name}_score", counting)
        hyp, ref, lex = two_pair_files
        code = main(
            ["score", *(arg for name in ALL_METRICS for arg in ("--metric", name)),
             "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lex),
             "--format", "json", "--out", str(tmp_path / "out.json")]
            + (["--per-sentence"] if per_sentence else [])
        )
        assert code == 0
        assert calls == {name: [2] for name in ALL_METRICS}
        metrics = json.loads((tmp_path / "out.json").read_text())["metrics"]
        for name in ALL_METRICS:
            assert len(metrics[name].get("per_sentence", [])) == (2 if per_sentence else 0)

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, two_pair_files):
        hyp, ref, lex = two_pair_files
        # An epsilon of 1 floors a zero order score at a perfect match.
        cases = [("bleu", "--epsilon", "1"), ("ebleu", "--epsilon", "1")]
        # Every scorer option is checked on every run, also where no
        # selected metric reads it.
        cases += [
            (metric, flag, value)
            for flag, value in [
                ("--epsilon", "1"),
                ("--synonym-score", "2"),
                ("--rare-words-percent", "0"),
                ("--rare-words-score", "0.5"),
            ]
            for metric in OPTION_FREE_METRICS
        ]
        for metric, flag, value in cases:
            assert_config_rejected(
                capsys, tmp_path, ["--metric", metric, "--hyp", str(hyp),
                                   "--ref", str(ref), "--lexicon", str(lex)],
                flag, value,
            )
        # The options are checked before any file is read.
        assert_config_rejected(
            capsys, tmp_path, ["--metric", "bleu", "--hyp", str(tmp_path / "missing.txt"),
                               "--ref", str(ref)],
            "--epsilon", "1",
        )

    # Below the smallest normal float, BLEU's floor epsilon / t can round to
    # 0.0, whose logarithm it would take after the files are read.
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("value", ["5e-324", "1e-310"])
    def test_subnormal_epsilon_is_usage_error_for_any_metric(
        self, capsys, tmp_path, two_pair_files, metric, value
    ):
        hyp, ref, lex = two_pair_files
        for hyp_path in (hyp, tmp_path / "missing.txt"):
            err = assert_config_rejected(
                capsys, tmp_path, ["--metric", metric, "--hyp", str(hyp_path),
                                   "--ref", str(ref), "--lexicon", str(lex)],
                "--epsilon", value,
            )
            assert f"got {value}" in err

    # --max-ngram is checked by EbleuConfig on every run, also for the
    # metrics that never read it.
    @pytest.mark.parametrize("metric", ["nist", "bleu", "ebleu", *OPTION_FREE_METRICS[1:]])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_ngram_below_one_is_usage_error_for_any_metric(
        self, capsys, tmp_path, two_pair_files, metric, value
    ):
        hyp, ref, lex = two_pair_files
        assert_config_rejected(
            capsys, tmp_path, ["--metric", metric, "--hyp", str(hyp),
                               "--ref", str(ref), "--lexicon", str(lex)],
            "--max-ngram", value,
        )

    # Past the bound of 1000 an order would cost memory and time that grow
    # with it, not with the sentences; 10**20 does not fit an index at all.
    @pytest.mark.parametrize(
        "metric, value",
        [(metric, "1001") for metric in ALL_METRICS] + [("ebleu", "99999999999999999999")],
    )
    def test_max_ngram_above_the_bound_is_usage_error_for_any_metric(
        self, capsys, tmp_path, two_pair_files, metric, value
    ):
        hyp, ref, lex = two_pair_files
        err = assert_config_rejected(
            capsys, tmp_path, ["--metric", metric, "--hyp", str(hyp),
                               "--ref", str(ref), "--lexicon", str(lex)],
            "--max-ngram", value,
        )
        assert f"must be in 1..1000, got {value}" in err
        # before any file is read
        assert_config_rejected(
            capsys, tmp_path, ["--metric", metric, "--hyp", str(tmp_path / "missing.txt"),
                               "--ref", str(ref), "--lexicon", str(lex)],
            "--max-ngram", value,
        )

    # NaN fails every comparison, so a `<` range check alone lets it
    # through, and an infinite epsilon or bonus clamps each order score
    # to 1: either would print EBLEU 100.00 with exit 0.
    @pytest.mark.parametrize(
        "metric, flag, value",
        [
            ("ebleu", "--rare-words-score", "nan"),
            ("ebleu", "--rare-words-score", "inf"),
            ("ebleu", "--epsilon", "nan"),
            ("ebleu", "--epsilon", "inf"),
            ("bleu", "--epsilon", "nan"),
            ("bleu", "--epsilon", "inf"),
        ]
        + [
            (metric, flag, value)
            for flag, value in [
                ("--epsilon", "nan"),
                ("--epsilon", "inf"),
                ("--rare-words-score", "nan"),
            ]
            for metric in OPTION_FREE_METRICS
        ],
    )
    def test_non_finite_config_value_is_usage_error(
        self, capsys, tmp_path, two_pair_files, metric, flag, value
    ):
        hyp, ref, lex = two_pair_files
        err = assert_config_rejected(
            capsys, tmp_path, ["--metric", metric, "--hyp", str(hyp),
                               "--ref", str(ref), "--lexicon", str(lex)],
            flag, value,
        )
        assert "finite" in err

    @pytest.mark.parametrize("bad", ["hyp", "ref", "lexicon"])
    def test_file_that_is_not_utf8_is_data_error_naming_it(
        self, capsys, exam_files, bad
    ):
        files = dict(zip(("hyp", "ref", "lexicon"), exam_files))
        files[bad].write_bytes(b"\xff" + files[bad].read_bytes())
        code = main(
            ["score", "--metric", "ebleu", "--hyp", str(files["hyp"]),
             "--ref", str(files["ref"]), "--lexicon", str(files["lexicon"])]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(files[bad]) in err
        assert err.count("\n") == 1

    def test_empty_corpus_is_data_error(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("", encoding="utf-8")
        ref.write_text("", encoding="utf-8")
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert code == 1

    def test_empty_hypothesis_file_is_data_error_naming_it(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("", encoding="utf-8")
        ref.write_text("", encoding="utf-8")
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {hyp}: ") and err.count("\n") == 1


# Hypotheses unlike their references, an empty one, and references of
# other lengths, so BLEU and NIST both clip, and differ from order to order.
BLEU_NIST_HYP = "a b c a b c d\nb a d c\n\nd d c b a b c a d\n"
BLEU_NIST_REFS = (
    "a b c d a b c\nb a d c e\na b\nd c b a b c a\n",
    "c a b c a b d\nb a d\nb\nd d c b a b c a d a\n",
)


@pytest.fixture
def bleu_nist_files(tmp_path):
    hyp = tmp_path / "bn_hyp.txt"
    hyp.write_text(BLEU_NIST_HYP, encoding="utf-8")
    refs = []
    for k, text in enumerate(BLEU_NIST_REFS):
        refs.append(tmp_path / f"bn_ref{k}.txt")
        refs[-1].write_text(text, encoding="utf-8")
    return ["--hyp", str(hyp), *(arg for ref in refs for arg in ("--ref", str(ref)))]


class TestBleuReadsNistMatches:
    """With NIST selected, BLEU takes its clipped matches from NIST's pass."""

    @pytest.mark.parametrize("per_sentence", [False, True])
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("max_ngram", range(1, 7))
    def test_both_equal_single_metric_runs_in_their_own_order(
        self, capsys, bleu_nist_files, max_ngram, fmt, per_sentence
    ):
        options = [*bleu_nist_files, "--max-ngram", str(max_ngram), "--format", fmt]
        options += ["--per-sentence"] if per_sentence else []

        def run(*metrics):
            code, out = run_cli(
                capsys, "score", *(a for m in metrics for a in ("--metric", m)), *options
            )
            assert code == 0
            if fmt == "json":
                payload = strict_json(out)
                return list(payload["metrics"]), payload["metrics"]
            rows = [ln.split("\t") for ln in out.splitlines() if not ln.startswith("#")]
            header, *rows = rows
            return header, {m: [row[header.index(m.upper())] for row in rows] for m in metrics}

        single = {m: run(m)[1][m] for m in ("bleu", "nist")}
        for metrics in (("bleu", "nist"), ("nist", "bleu")):
            names, values = run(*metrics)
            assert names == [m if fmt == "json" else m.upper() for m in metrics]
            assert values == single

    @pytest.mark.parametrize("max_ngram, tables", [(4, 1), (5, 1), (6, 2)])
    def test_one_hypothesis_table_per_pair(
        self, monkeypatch, tmp_path, bleu_nist_files, max_ngram, tables
    ):
        from mteval import bleu, ebleu, ngram, refmetrics

        counted = []
        original = ngram.window_counts

        def counting(tokens, *args):
            counted.append(" ".join(tokens))
            return original(tokens, *args)

        for module in (ngram, bleu, ebleu, refmetrics):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
        code = main(
            ["score", "--metric", "bleu", "--metric", "nist", *bleu_nist_files,
             "--max-ngram", str(max_ngram), "--out", str(tmp_path / "out.tsv")]
        )
        assert code == 0
        hypotheses = BLEU_NIST_HYP.splitlines()
        # NIST counts every hypothesis, BLEU only past NIST's order 5.
        assert [h for h in counted if h in hypotheses] == hypotheses * tables


    @pytest.mark.parametrize(
        "metrics, max_ngram, calls",
        [(("nist",), 4, 0), (("nist", "bleu"), 6, 0), (("nist", "bleu"), 4, 3)],
    )
    def test_nist_sums_its_matches_per_order_only_for_bleu(
        self, tmp_path, metrics, max_ngram, calls
    ):
        from mteval import refmetrics

        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("a b c d\nb a d c\nd d c b\n", encoding="utf-8")
        ref.write_text("a b c d a\nb a d\nd c b a\n", encoding="utf-8")
        argv = ["score", *(a for m in metrics for a in ("--metric", m))]
        argv += ["--hyp", str(hyp), "--ref", str(ref), "--max-ngram", str(max_ngram)]
        with recorded_calls(refmetrics, "matches_per_order") as recorded:
            assert main([*argv, "--out", str(tmp_path / "out.tsv")]) == 0
        assert len(recorded) == calls

    @pytest.mark.parametrize(
        "metrics, max_ngram, per_pair",
        [
            (("bleu", "nist"), 4, 1),
            (("bleu", "nist"), 6, 2),
            (("bleu",), 4, 1),
            (("ebleu",), 4, 0),
        ],
    )
    def test_each_pair_is_clipped_once_per_reader(
        self, tmp_path, bleu_nist_files, metrics, max_ngram, per_pair
    ):
        # BLEU reads NIST's clipping up to NIST's order 5; EBLEU clips by its own rule.
        from mteval import bleu

        lexicon = tmp_path / "syn.txt"
        lexicon.write_text("a, e\n", encoding="utf-8")
        argv = ["score", *(a for m in metrics for a in ("--metric", m)), *bleu_nist_files]
        argv += ["--lexicon", str(lexicon), "--max-ngram", str(max_ngram)]
        with recorded_calls(bleu, "clip_pair") as recorded:
            assert main([*argv, "--out", str(tmp_path / "out.tsv")]) == 0
        pairs = len(BLEU_NIST_HYP.splitlines())
        assert len(recorded) == per_pair * pairs


class TestSameTextScoresTheSame:
    """A line scores as its NFC form with every U+FEFF dropped (UAX #15)."""

    @staticmethod
    def score_rows(capsys, tmp_path, hyp_text, ref_text, *options):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text(hyp_text, encoding="utf-8")
        ref.write_text(ref_text, encoding="utf-8")
        code, out = run_cli(capsys, "score", "--hyp", str(hyp), "--ref", str(ref), *options)
        assert code == 0
        echo = ("# pairs", "# metrics")
        return [ln for ln in out.splitlines() if not ln.startswith(echo)]

    @pytest.mark.parametrize(
        "hyp, rows",
        [
            # NFD against NFC: the same text.
            ("the cafe\u0301 is open\n", ["BLEU\tTER", "100.00\t0.00"]),
            # A zero width space is another format character, and it stays.
            ("the caf\u200b\u00e9 is open\n", ["BLEU\tTER", "50.00\t25.00"]),
        ],
        ids=["nfd", "zero-width-space"],
    )
    def test_canonically_equivalent_text_matches(self, capsys, tmp_path, hyp, rows):
        options = ["--metric", "bleu", "--metric", "ter", "--max-ngram", "2"]
        got = self.score_rows(capsys, tmp_path, hyp, "the caf\u00e9 is open\n", *options)
        assert got == rows

    def test_a_byte_order_mark_inside_a_file_is_dropped(self, capsys, tmp_path):
        options = ["--metric", "bleu", "--max-ngram", "2", "--per-sentence"]
        hyp, ref = "a b\n\ufeffc d\n", "a b\nc d\n"
        got = self.score_rows(capsys, tmp_path, hyp, ref, *options)
        assert got == ["BLEU", "100.00", "# per-sentence", "100.00", "100.00"]

    def test_an_nfd_lexicon_field_matches_its_nfc_word(self, capsys, tmp_path):
        lexicon = tmp_path / "syn.txt"
        options = ["--metric", "ebleu", "--metric", "meteor", "--lexicon", str(lexicon)]
        hyp, ref = "the caf\u00e9 is open\n", "the bistr\u00f3 is open\n"

        def rows(synonyms):
            lexicon.write_text(synonyms + "\n", encoding="utf-8")
            return self.score_rows(capsys, tmp_path, hyp, ref, *options)

        nfc = rows("caf\u00e9, bistr\u00f3")
        assert rows("cafe\u0301, bistro\u0301") == nfc
        assert rows("caf\u00e9, bistro") != nfc

    # A U+FEFF at the start of a lexicon line is dropped before the line is
    # read as blank or comment, so the line stays one.
    @pytest.mark.parametrize(
        "stray", ["\ufeff# note, x\n", "\ufeff\n"], ids=["comment", "blank"]
    )
    def test_a_byte_order_mark_does_not_make_a_lexicon_line(self, capsys, tmp_path, stray):
        lexicon = tmp_path / "syn.txt"
        options = ["--metric", "meteor", "--lexicon", str(lexicon)]
        hyp, ref = "the exam is hard\n", "the quiz is hard\n"
        for synonyms in ("exam, quiz\n", "exam, quiz\n" + stray):
            lexicon.write_text(synonyms, encoding="utf-8")
            got = self.score_rows(capsys, tmp_path, hyp, ref, *options)
            assert got == ["METEOR", "87.50"]


class TestCorrelateCommand:
    def test_fixture_pearson_entry(self, capsys, pl_en_table_path):
        code, out = run_cli(
            capsys, "correlate", "--table", str(pl_en_table_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        names = payload["metrics"]
        met_row = names.index("METEOR")
        ebleu_col = names.index("EBLEU")
        assert payload["pearson"][met_row][ebleu_col] == pytest.approx(
            0.8981, abs=0.005
        )

    def test_equal_columns_give_one(self, capsys, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("m1\tm2\n1\t1\n2\t2\n9\t9\n", encoding="utf-8")
        code, out = run_cli(capsys, "correlate", "--table", str(path))
        assert code == 0
        row = [ln for ln in out.splitlines() if ln.startswith("m2")][0]
        assert float(row.split("\t")[1]) == pytest.approx(1.0)

    def test_both_kinds_and_lambda(self, capsys, pl_en_table_path):
        code, out = run_cli(
            capsys,
            "correlate", "--table", str(pl_en_table_path),
            "--kind", "both", "--lambda", "--bins", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "pearson" in payload and "spearman" in payload
        assert "spearman_p" in payload
        lam = payload["lambda"]
        assert lam["bins"] == 4
        assert len(lam["values"]) == len(payload["metrics"])

    def test_ragged_table_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n3\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1

    def test_non_numeric_table_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\toops\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1

    # Comment and blank lines count: each error names the file line, whether
    # the table is read alone or merged after a good one.
    @pytest.mark.parametrize("command", ["correlate", "report"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("BLEU\tTER\n# c\n\n1\t2\n3\n", "5: row has 1 cells, header has 2"),
            ("BLEU\tTER\n1\t2\n\n\nnan\t3\n", "5: non-finite cell 'nan'"),
            ("a\tb\n1\t2\n# note\nx\t3\n", "4: non-numeric cell 'x'"),
        ],
        ids=["ragged", "non-finite", "non-numeric"],
    )
    def test_table_error_names_its_file_line(
        self, capsys, tmp_path, pl_en_table_path, command, text, message
    ):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        first = [] if command == "correlate" else ["--table", str(pl_en_table_path)]
        assert main(["correlate", *first, "--table", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"

    # A score --per-sentence tsv holds its corpus row above the marker line
    # and one row per sentence below it: read as a score table, the corpus
    # row would count as one more sentence, alone or merged after a table.
    @pytest.mark.parametrize("command", ["correlate", "report"])
    def test_per_sentence_output_is_not_a_score_table(
        self, capsys, tmp_path, pl_en_table_path, command
    ):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("a b c\nb c d\nc d e\n", encoding="utf-8")
        ref.write_text("a b c\nb c x\nx y e\n", encoding="utf-8")
        table = tmp_path / "scores.tsv"
        assert main(["score", "--metric", "bleu", "--metric", "ter", "--hyp", str(hyp),
                     "--ref", str(ref), "--per-sentence", "--out", str(table)]) == 0
        first = [] if command == "correlate" else ["--table", str(pl_en_table_path)]
        argv = ["correlate", *first, "--table", str(table), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}:5: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_per_sentence_marker_after_a_byte_order_mark_is_refused(self, capsys, tmp_path):
        # Read as a comment, the marker would let the corpus row count as a sentence.
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("a b c\nb c d\nc d e\n", encoding="utf-8")
        ref.write_text("a b c\nb c x\nx y e\n", encoding="utf-8")
        table = tmp_path / "scores.tsv"
        assert main(["score", "--metric", "bleu", "--metric", "ter", "--hyp", str(hyp),
                     "--ref", str(ref), "--per-sentence", "--out", str(table)]) == 0
        text = table.read_text(encoding="utf-8")
        table.write_text(text.replace("# per-sentence", "\ufeff# per-sentence"), encoding="utf-8")
        assert main(["correlate", "--table", str(table)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {table}:5: ")

    def test_a_comment_after_a_byte_order_mark_is_a_comment(self, capsys, tmp_path):
        path = tmp_path / "table.tsv"
        outputs = []
        for note in ("", "\ufeff# note\n"):
            path.write_text(f"BLEU\tTER\n1\t3\n{note}2\t2\n3\t1\n", encoding="utf-8")
            outputs.append(run_cli(capsys, "correlate", "--table", str(path)))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_data_error(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\n1\t2\n{cell}\t3\n2\t5\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1
        assert repr(cell) in capsys.readouterr().err

    def test_table_that_is_not_utf8_is_data_error_naming_it(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a\tb\n1\t2\n\xff\t3\n2\t5\n")
        assert main(["correlate", "--table", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_utf8_bom_is_not_part_of_the_first_metric_name(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(b"\xef\xbb\xbfBLEU\tTER\n1\t3\n2\t2\n3\t1\n")
        assert read_score_table(path).metric_names == ("BLEU", "TER")

    def test_unicode_line_separator_stays_in_its_row(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("BLEU\u2028TER\n1\x853\n2\t2\n3\t1\n", encoding="utf-8")
        table = read_score_table(path)
        assert table.metric_names == ("BLEU", "TER")
        assert table.rows == ((1.0, 3.0), (2.0, 2.0), (3.0, 1.0))

    @pytest.mark.parametrize(
        "rows, options, names",
        [
            ("1\t2\n", [], ["'a'", "'b'"]),  # one observation
            ("1\t2\n1\t3\n", [], ["'a'", "'b'"]),  # a constant column
            ("1\t2\n1\t3\n", ["--kind", "spearman"], ["'a'", "'b'"]),
            ("1\t4\n2\t5\n3\t6\n", ["--lambda", "--bins", "10"], ["'a'"]),
        ],
        ids=["one-row", "constant-pearson", "constant-spearman", "lambda-bins"],
    )
    def test_data_error_names_the_table_and_its_metrics(
        self, capsys, tmp_path, rows, options, names
    ):
        path = tmp_path / "table.tsv"
        path.write_text("a\tb\n" + rows, encoding="utf-8")
        assert main(["correlate", "--table", str(path), *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        for name in names:
            assert name in err

    # Like score's options, --bins is checked before the table is read, with
    # or without --lambda.
    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    @pytest.mark.parametrize("gk_lambda", [[], ["--lambda"]], ids=["plain", "lambda"])
    def test_bins_below_two_is_usage_error(
        self, capsys, tmp_path, pl_en_table_path, bins, gk_lambda
    ):
        for table in (pl_en_table_path, tmp_path / "missing.tsv"):
            run = ["correlate", "--table", str(table), *gk_lambda, "--bins", bins]
            assert main(run) == 2, run
            captured = capsys.readouterr()
            assert captured.out == "", run
            assert captured.err.startswith("usage error: "), run
            assert captured.err.count("\n") == 1, run
            assert "--bins" in captured.err, run

    def test_duplicate_metric_name_is_data_error(self, capsys, tmp_path, pl_en_table_path):
        path = tmp_path / "dup.tsv"
        path.write_text("A\tA\tB\n1\t2\t3\n2\t1\t5\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1
        assert "'A'" in capsys.readouterr().err
        assert main(["correlate", "--table", str(pl_en_table_path), "--table", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: metric name 'A' ")


class TestReportCommand:
    """A report over several runs: ``correlate`` with one ``--table`` per
    table reads the rows of every table, in order."""

    def test_merges_two_tables(self, capsys, pl_en_table_path, en_pl_table_path):
        code, out = run_cli(
            capsys,
            "correlate", "--table", str(pl_en_table_path),
            "--table", str(en_pl_table_path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 24
        assert payload["metrics"][0] == "EBLEU"
        assert payload["tables"] == [str(pl_en_table_path), str(en_pl_table_path)]

    def test_single_input_passes_through(self, capsys, pl_en_table_path):
        code, out = run_cli(
            capsys, "correlate", "--table", str(pl_en_table_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["tables"], payload["rows"]) == ([str(pl_en_table_path)], 12)

    def test_mismatched_columns_is_data_error(self, capsys, tmp_path, pl_en_table_path):
        other = tmp_path / "other.tsv"
        other.write_text("X\tY\n1\t2\n", encoding="utf-8")
        argv = ["correlate", "--table", str(pl_en_table_path), "--table", str(other)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {other}: columns ")

    def test_table_that_is_not_utf8_is_data_error_naming_it(
        self, capsys, tmp_path, pl_en_table_path
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff" + pl_en_table_path.read_bytes())
        argv = ["correlate", "--table", str(pl_en_table_path), "--table", str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    def test_feeds_correlate(self, capsys, pl_en_table_path, en_pl_table_path):
        code, out = run_cli(
            capsys,
            "correlate", "--table", str(pl_en_table_path),
            "--table", str(en_pl_table_path), "--kind", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        pl_en, en_pl = map(read_score_table, (pl_en_table_path, en_pl_table_path))
        concatenated = ScoreTable(pl_en.metric_names, pl_en.rows + en_pl.rows)
        for kind in ("pearson", "spearman"):
            matrix = correlation_matrix(concatenated, kind)
            assert payload[kind] == [[c.coefficient for c in row] for row in matrix]


# The options that ``score`` echoes and a merge compares, each with score
# arguments that set it off its default.
SCORING_OPTIONS = {
    "max_ngram": ["--max-ngram", "2"],
    "synonym_score": ["--synonym-score", "0.5"],
    "rare_words_percent": ["--rare-words-percent", "0.5"],
    "rare_words_score": ["--rare-words-score", "1.0"],
    "epsilon": ["--epsilon", "0.1"],
    "lowercase": ["--lowercase"],
    "split_punct": ["--split-punct"],
    "ref_count": ["--ref", "ref.txt"],
}


class TestTablesScoredAlike:
    """Scores computed under different settings are not comparable (Post
    2018): a merge refuses a table whose scoring options differ from the
    first table's, naming it and the first option that differs."""

    # Hypotheses of three scores on ref.txt, under paths with a space and
    # with the echo's `` max_ngram=`` in them.
    HYPS = {
        "hyp.txt": "the cat sat on the mat",
        "my hyp.txt": "the cat sat on a mat",
        "x max_ngram=2 y.txt": "a cat sat on a mat",
    }

    @pytest.fixture
    def score(self, tmp_path, monkeypatch):
        """``score(out, *options, hyp=..., refs=...)`` scores BLEU and NIST
        into the table ``out`` in ``tmp_path``, and returns ``out``."""
        monkeypatch.chdir(tmp_path)
        for name, text in self.HYPS.items():
            Path(name).write_text(text + "\n", encoding="utf-8")
        for name in ("ref.txt", "other ref.txt"):
            Path(name).write_text("the cat sat on the mat\n", encoding="utf-8")
        Path("syn max_ngram=9.txt").write_text("cat, kitten\n", encoding="utf-8")

        def run(out: str, *options: str, hyp="hyp.txt", refs=("ref.txt",)) -> str:
            argv = ["score", "--metric", "bleu", "--metric", "nist", "--hyp", hyp]
            argv += [arg for ref in refs for arg in ("--ref", ref)]
            assert main([*argv, *options, "--out", out]) == 0
            return out

        return run

    def test_defaults_and_bleu_2_lowercased_is_data_error(self, capsys, score):
        a, b = score("a.tsv"), score("b.tsv", "--max-ngram", "2", "--lowercase")
        assert main(["correlate", "--table", a, "--table", b]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: b.tsv: scored with max_ngram=2, unlike a.tsv\n"
        assert captured.out == ""

    @pytest.mark.parametrize("option", SCORING_OPTIONS)
    def test_each_scoring_option_is_compared(self, capsys, score, option):
        a, b = score("a.tsv"), score("b.tsv", *SCORING_OPTIONS[option])
        assert main(["correlate", "--table", a, "--table", b]) == 1
        assert capsys.readouterr().err.startswith(f"error: b.tsv: scored with {option}=")

    @pytest.mark.parametrize(
        "hyp, refs, lexicon",
        [
            ("my hyp.txt", ["ref.txt"], []),
            ("x max_ngram=2 y.txt", ["ref.txt"], []),
            ("my hyp.txt", ["other ref.txt"], []),
            ("my hyp.txt", ["ref.txt"], ["--lexicon", "syn max_ngram=9.txt"]),
        ],
        ids=["hyp-with-space", "hyp-with-max_ngram", "refs", "lexicon"],
    )
    def test_tables_that_differ_only_in_paths_merge(
        self, capsys, score, hyp, refs, lexicon
    ):
        a, b = score("a.tsv"), score("b.tsv", *lexicon, hyp=hyp, refs=refs)
        code, out = run_cli(capsys, "correlate", "--table", a, "--table", b,
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == 2

    @pytest.mark.parametrize("echo_first", [True, False], ids=["echo-first", "echo-last"])
    def test_tables_with_and_without_echo_lines_do_not_merge(
        self, capsys, score, echo_first
    ):
        echoed = score("a.tsv")
        lines = Path(echoed).read_text(encoding="utf-8").splitlines(keepends=True)
        Path("bare.tsv").write_text("".join(lines[2:]), encoding="utf-8")
        first, second = (echoed, "bare.tsv") if echo_first else ("bare.tsv", echoed)
        assert main(["correlate", "--table", first, "--table", second]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {second}: has ") and err.endswith(f", unlike {first}\n")

    def test_echo_lines_after_a_byte_order_mark_are_compared(self, capsys, score):
        # Skipped as comments but not read as echo lines, they would let
        # tables scored differently merge.
        for out, options in (("a.tsv", ()), ("b.tsv", ("--max-ngram", "2"))):
            text = Path(score(out, *options)).read_text(encoding="utf-8")
            Path(out).write_text(text.replace("# ", "\ufeff# "), encoding="utf-8")
        assert main(["correlate", "--table", "a.tsv", "--table", "b.tsv"]) == 1
        assert capsys.readouterr().err == "error: b.tsv: scored with max_ngram=2, unlike a.tsv\n"


def test_module_entry_point(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    ref.write_text("a b\n", encoding="utf-8")
    src = Path(mteval.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "mteval", "score", "--metric", "bleu",
         "--max-ngram", "2", "--hyp", str(hyp), "--ref", str(ref)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "100.00" in proc.stdout


SCIPY_FREE_CHILD = """\
import runpy, sys
sys.modules["scipy"] = sys.modules["numpy"] = None  # any import of them fails
import mteval.cli
code = 0
{run}
print(sorted(name for name, module in sys.modules.items()
             if module is not None and name.split(".")[0] in ("scipy", "numpy")))
sys.exit(code)
"""


def test_import_does_not_load_scipy(tmp_path, exam_files, pl_en_table_path):
    """The import, ``score``, ``correlate`` and the correlation study all run
    with scipy and numpy blocked, and load no module of either."""
    hyp, ref, lex = exam_files
    score = ["score", "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lex),
             "--per-sentence", "--out", str(tmp_path / "scores.tsv")]
    score += [arg for metric in ALL_METRICS for arg in ("--metric", metric)]
    correlate = ["correlate", "--table", str(pl_en_table_path), "--kind", "both",
                 "--lambda", "--bins", "4", "--format", "json",
                 "--out", str(tmp_path / "correlations.json")]
    study = Path(__file__).resolve().parents[1] / "scripts" / "run_correlation_study.py"
    src = Path(mteval.__file__).resolve().parents[1]
    for run in (
        "pass",
        f"code = mteval.cli.main({score!r})",
        f"code = mteval.cli.main({correlate!r})",
        f"runpy.run_path({str(study)!r}, run_name='__main__')",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_CHILD.format(run=run)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, (run, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "[]", run


FOOTPRINT_CHILD = """\
import sys
import mteval
import mteval.cli
assert mteval.cli.main({score!r}) == 0
print(sorted(name for name in ("dataclasses", "inspect", "json", "mteval.stats")
             if name in sys.modules))
assert mteval.cli.main({correlate!r}) == 0
print([name for name in mteval.__all__ if getattr(mteval, name, None) is None])
"""


def test_score_loads_only_what_scoring_runs(tmp_path, exam_files, pl_en_table_path):
    """``score --metric ter --format tsv`` loads neither ``dataclasses``,
    ``inspect``, ``json`` nor the statistics; ``correlate --format json``
    runs after it in the same process, and every name of ``mteval.__all__``
    resolves. ``-S`` keeps out the modules that ``site`` imports."""
    hyp, ref, _ = exam_files
    score = ["score", "--metric", "ter", "--format", "tsv", "--hyp", str(hyp),
             "--ref", str(ref), "--out", str(tmp_path / "scores.tsv")]
    correlate = ["correlate", "--table", str(pl_en_table_path), "--format", "json",
                 "--out", str(tmp_path / "correlations.json")]
    src = Path(mteval.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         FOOTPRINT_CHILD.format(score=score, correlate=correlate)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert json.loads((tmp_path / "correlations.json").read_text(encoding="utf-8"))


def test_every_config_field_is_a_score_flag():
    # A config field that no ``score`` flag sets is a library-only knob.
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    actions = subparsers.choices["score"]._actions
    dests = {action.dest for action in actions}
    flags = {flag for action in actions for flag in action.option_strings}
    tokenizer_flags = {"lowercase": "--lowercase", "split_punctuation": "--split-punct"}
    for field in TokenizerConfig._fields:
        assert tokenizer_flags.get(field) in flags, f"TokenizerConfig.{field}"
    for config in (EbleuConfig, BleuConfig):
        for field in config._fields:
            assert field in dests, f"{config.__name__}.{field}"


def public_functions() -> dict:
    """The code object of every public function and method that a module of
    ``mteval`` defines, mapped to its ``module.qualname``; decorated ones by
    the function they wrap. Code objects, not ``co_qualname``, which Python
    3.10 lacks."""
    names = {}
    for info in pkgutil.iter_modules(mteval.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"mteval.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                members = {
                    f"{name}.{attr}": value for attr, value in vars(obj).items()
                    if not attr.startswith("_")
                }
            for qualname, value in members.items():
                function = inspect.unwrap(getattr(value, "__func__", value))
                if hasattr(function, "__code__"):
                    names[function.__code__] = f"{info.name}.{qualname}"
    return names


# Public functions that no CLI command calls, each with what calls it instead.
NOT_REACHED_BY_THE_CLI = {
    "cli.run": "the console entry point, which calls cli.main",
    "records.checked": "decorates the validated records when their module is imported",
    "stats.ScoreTable.column": "scripts/run_correlation_study.py",
    "stats.goodman_kruskal_lambda": "scripts/run_correlation_study.py",
}


def test_every_public_function_is_reached_by_the_cli(
    two_pair_files, pl_en_table_path, en_pl_table_path
):
    # A public function that no command reaches is a second path or a
    # library-only knob: delete it or give it a caller.
    hyp, ref, lex = two_pair_files
    correlate = ["correlate", "--table", str(pl_en_table_path),
                 "--table", str(en_pl_table_path)]
    score = ["score", "--hyp", str(hyp), "--ref", str(ref), "--ref", str(ref)]
    every_metric = [arg for name in ALL_METRICS for arg in ("--metric", name)]
    runs = [
        [*score, *every_metric, "--lexicon", str(lex)],
        [*score, *every_metric, "--lexicon", str(lex), "--per-sentence", "--format", "json"],
        [*score, "--metric", "bleu", "--max-ngram", "6", "--epsilon", "0.1",
         "--lowercase", "--split-punct"],
        [*correlate, "--kind", "both", "--lambda", "--format", "json"],
        [*correlate, "--kind", "both", "--lambda"],
    ]
    names = public_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = main(argv)
            finally:
                sys.setprofile(previous)
        assert code == 0, argv
    not_reached = {name for code, name in names.items() if code not in called}
    assert not_reached == set(NOT_REACHED_BY_THE_CLI)


def test_read_score_table_rejects_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(TableFormatError):
        read_score_table(path)
