import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mteval
from mteval import cli
from mteval.cli import main, read_score_table
from mteval.errors import TableFormatError


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
        # wrappers, so every call must go through them, and NIST, TER,
        # METEOR, LEPOR and RIBES must score each pair by a one-pair call.
        calls = {}
        for name in ALL_METRICS:
            scorer = getattr(cli, f"{name}_score")

            def counting(corpus, *rest, scorer=scorer, name=name):
                calls.setdefault(name, []).append(len(corpus))
                return scorer(corpus, *rest)

            monkeypatch.setattr(cli, f"{name}_score", counting)
        hyp, ref, lex = two_pair_files
        code = main(
            ["score", *(arg for name in ALL_METRICS for arg in ("--metric", name)),
             "--hyp", str(hyp), "--ref", str(ref), "--lexicon", str(lex),
             "--out", str(tmp_path / "out.tsv")]
            + (["--per-sentence"] if per_sentence else [])
        )
        assert code == 0
        one_pair_calls = [1, 1] if per_sentence else []
        assert calls == {
            name: [2] + ([] if name in ("bleu", "ebleu") else one_pair_calls)
            for name in ALL_METRICS
        }

    def test_bad_config_value_is_usage_error(self, capsys, identical_files):
        hyp, ref = identical_files
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref),
             "--max-ngram", "0"]
        )
        assert code == 2

    def test_empty_corpus_is_data_error(self, capsys, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("", encoding="utf-8")
        ref.write_text("", encoding="utf-8")
        code = main(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref)]
        )
        assert code == 1


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_data_error(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\n1\t2\n{cell}\t3\n2\t5\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1
        assert repr(cell) in capsys.readouterr().err

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

    def test_duplicate_metric_name_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("A\tA\tB\n1\t2\t3\n2\t1\t5\n", encoding="utf-8")
        assert main(["correlate", "--table", str(path)]) == 1
        assert "'A'" in capsys.readouterr().err
        assert main(["report", "--in", str(path)]) == 1


class TestReportCommand:
    def test_merges_two_tables(self, capsys, pl_en_table_path, en_pl_table_path):
        code, out = run_cli(
            capsys,
            "report", "--in", str(pl_en_table_path), "--in", str(en_pl_table_path),
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 1 + 24
        assert lines[0].split("\t")[0] == "EBLEU"

    def test_single_input_passes_through(self, capsys, tmp_path, pl_en_table_path):
        code, out = run_cli(capsys, "report", "--in", str(pl_en_table_path))
        assert code == 0
        merged = tmp_path / "merged.tsv"
        merged.write_text(out, encoding="utf-8")
        table = read_score_table(merged)
        assert table.rows == read_score_table(pl_en_table_path).rows

    def test_mismatched_columns_is_data_error(self, capsys, tmp_path, pl_en_table_path):
        other = tmp_path / "other.tsv"
        other.write_text("X\tY\n1\t2\n", encoding="utf-8")
        assert main(["report", "--in", str(pl_en_table_path), "--in", str(other)]) == 1

    def test_feeds_correlate(self, capsys, tmp_path, pl_en_table_path, en_pl_table_path):
        merged = tmp_path / "merged.tsv"
        code = main(
            ["report", "--in", str(pl_en_table_path), "--in", str(en_pl_table_path),
             "--out", str(merged)]
        )
        assert code == 0
        code, out = run_cli(
            capsys, "correlate", "--table", str(merged), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["rows"] == 24


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


def test_import_does_not_load_scipy():
    src = Path(mteval.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mteval.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_read_score_table_rejects_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(TableFormatError):
        read_score_table(path)
