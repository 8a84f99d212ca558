"""The CLI's contract on generated input files, run in-process through ``cli.main``.

Every case either exits 0 with output equal to the library call on the same
files, or exits 1 or 2 with one stderr line that names a file at fault. No
case may raise. The files mix LF, CRLF and CR line ends, byte order marks,
separators that stay inside a line (U+2028, U+0085, form feed, ...), empty
and whitespace-only lines; the faults are bytes that are not UTF-8, a line
count that differs from the hypothesis file, a missing path, a directory,
malformed lexicon lines and malformed score-table lines.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mteval import (
    MetricScore,
    TokenizerConfig,
    bleu_score,
    ebleu_score,
    lepor_score,
    load_parallel_corpus,
    load_synonym_lexicon,
    meteor_score,
    nist_score,
    ribes_score,
    ter_score,
)
from mteval.cli import main
from mteval.errors import MTEvalError
from mteval.stats import (
    ScoreTable,
    correlation_matrix,
    lambda_matrices,
    read_score_table,
)

SETTINGS = settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow]
)

# Each metric as the library runs it with the CLI's default options:
# (corpus, lexicon, per-sentence sink) -> result.
LIBRARY = {
    "ebleu": lambda c, lex, s: ebleu_score(c, lex, per_sentence=s),
    "bleu": lambda c, lex, s: bleu_score(c, per_sentence=s),
    "nist": lambda c, lex, s: nist_score(c, per_sentence=s),
    "ter": lambda c, lex, s: ter_score(c, per_sentence=s),
    "meteor": lambda c, lex, s: meteor_score(c, lex, per_sentence=s),
    "lepor": lambda c, lex, s: lepor_score(c, per_sentence=s),
    "ribes": lambda c, lex, s: ribes_score(c, per_sentence=s),
}

# The metrics whose scores do not depend on the order of the --ref files.
ORDER_FREE_METRICS = ("bleu", "ebleu", "nist", "ter", "ribes")

WORDS = st.sampled_from(["a", "b", "exam", "quiz", "A", "b.", "é"])
INNER_SPACE = st.sampled_from(
    [" ", "\t", "\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"]
)
# A line: words joined by separators that never end a line, or only blanks.
LINE = st.one_of(
    st.lists(st.tuples(INNER_SPACE, WORDS), max_size=6).map(
        lambda parts: "".join(space + word for space, word in parts)
    ),
    st.sampled_from(["", " ", "\t", "\u2028"]),
)
# A line of words only, so that most pairs score above zero.
SCORED_LINE = st.lists(WORDS, max_size=6).map(" ".join)
LEXICON_WORDS = ["a", "b", "exam", "quiz", "test"]
LEXICON_LINE = st.one_of(
    st.builds(
        str.join,
        st.sampled_from([", ", ","]),
        st.lists(st.sampled_from(LEXICON_WORDS), min_size=2, max_size=3, unique=True),
    ),
    st.sampled_from(["", "# a comment", "  "]),
)
MALFORMED_LEXICON_LINE = st.sampled_from(
    ["exam", "a b, quiz", "a, , b", "a\u2028b, c", "a, a"]
)
NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])

NAMES = st.lists(
    st.sampled_from(["BLEU", "TER", "m1", "é"]), min_size=1, max_size=3, unique=True
)
CELL = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.5", "1e-3", "-2.25", "100", "37.12"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def file_bytes(draw, lines):
    """``lines`` as a UTF-8 file: each line ended by LF, CRLF or CR, maybe a
    byte order mark, and maybe no end after a last line that is not empty."""
    end = st.sampled_from(["\n", "\r\n", "\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    for i in range(len(lines) - 1):
        # A CR followed by an empty line's LF would read as one CRLF.
        if ends[i] == "\r" and not lines[i + 1] and ends[i + 1] != "\r":
            ends[i] = "\r\n"
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and lines[-1] and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


@st.composite
def maybe_not_utf8(draw, data: bytes) -> tuple[bytes, bool]:
    """``data``, or ``data`` with a byte sequence that is not UTF-8 inserted,
    and whether it was inserted."""
    if draw(st.integers(0, 3)):
        return data, False
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(NOT_UTF8) + data[at:], True


class Files:
    """Generated input files in one temporary directory, and which are at fault.

    Half the cases are clean: their files are all written and all UTF-8.
    """

    def __init__(self, root: Path, draw) -> None:
        self.root = root
        self.faulty: set[str] = set()
        self.clean = draw(st.booleans())

    def add(self, draw, name: str, data: bytes, fault: bool = False) -> str:
        path = self.root / name
        if self.clean:
            path.write_bytes(data)
            return str(path)
        data, not_utf8 = draw(maybe_not_utf8(data))
        kind = draw(st.sampled_from([None] * 6 + ["missing", "directory"]))
        if kind == "directory":
            path.mkdir()
        elif kind is None:
            path.write_bytes(data)
        if fault or not_utf8 or kind is not None:
            self.faulty.add(str(path))
        return str(path)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_names_a_faulty_file(code: int, err: str, files: Files) -> None:
    assert code in (1, 2), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith(("error: ", "usage error: ")), err
    assert any(path in err for path in files.faulty), (err, files.faulty)


def finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


@st.composite
def score_case(draw, root: Path):
    files = Files(root, draw)
    n = draw(st.integers(int(files.clean), 4))
    hyp_lines = draw(st.lists(LINE, min_size=n, max_size=n))
    hyp = files.add(draw, "hyp.txt", draw(file_bytes(hyp_lines)), fault=n == 0)
    refs = []
    for k in range(draw(st.integers(1, 2))):
        m = n if files.clean else draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
        data = draw(file_bytes(draw(st.lists(LINE, min_size=m, max_size=m))))
        refs.append(files.add(draw, f"ref{k}.txt", data, fault=m != n))
    lex_lines = draw(st.lists(LEXICON_LINE, max_size=4))
    malformed = not files.clean and draw(st.integers(0, 3)) == 0
    if malformed:
        at = draw(st.integers(0, len(lex_lines)))
        lex_lines.insert(at, draw(MALFORMED_LEXICON_LINE))
    lexicon = files.add(draw, "syn.txt", draw(file_bytes(lex_lines)), fault=malformed)
    flags = ("--lowercase", "--split-punct", "--per-sentence")
    options = [flag for flag in flags if draw(st.booleans())]
    return files, hyp, refs, lexicon, options


class TestScoreContract:
    @SETTINGS
    @given(st.data())
    def test_scores_equal_the_library_or_an_error_names_the_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            files, hyp, refs, lexicon, options = data.draw(score_case(Path(tmp)))
            argv = ["score", "--hyp", hyp, "--lexicon", lexicon, "--format", "json"]
            argv += options
            for ref in refs:
                argv += ["--ref", ref]
            for name in LIBRARY:
                argv += ["--metric", name]
            code, out, err = run_main(argv)
            if files.faulty:
                assert_names_a_faulty_file(code, err, files)
                return
            assert (code, err) == (0, "")
            cfg = TokenizerConfig("--lowercase" in options, "--split-punct" in options)
            corpus = load_parallel_corpus(hyp, refs, cfg)
            lex = load_synonym_lexicon(lexicon, cfg)
            metrics = json.loads(out)["metrics"]
            for name, run in LIBRARY.items():
                sink = []
                result = run(corpus, lex, sink)
                if not isinstance(result, MetricScore):
                    result = MetricScore(result, None)
                score, details = result
                got = metrics[name]
                assert got["score"] == finite_or_none(score)
                assert got.get("details") == details
                if "--per-sentence" in options:
                    assert got["per_sentence"] == [finite_or_none(v) for v in sink]


    @SETTINGS
    @given(st.data())
    def test_reordering_the_ref_files_moves_no_score(self, data):
        # Only the echoed refs move, as tests/test_metamorphic.py has it.
        n = data.draw(st.integers(1, 4))
        lines = st.lists(SCORED_LINE, min_size=n, max_size=n)
        ref_count = data.draw(st.integers(2, 3))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            hyp, lexicon = root / "hyp.txt", root / "syn.txt"
            refs = [str(root / f"ref{k}.txt") for k in range(ref_count)]
            for path in (hyp, *refs):
                Path(path).write_bytes(data.draw(file_bytes(data.draw(lines))))
            lex_lines = data.draw(st.lists(LEXICON_LINE, max_size=4))
            lexicon.write_bytes(data.draw(file_bytes(lex_lines)))
            flags = ("--lowercase", "--split-punct")
            argv = ["score", "--hyp", str(hyp), "--lexicon", str(lexicon),
                    "--format", "json", "--per-sentence"]
            argv += [flag for flag in flags if data.draw(st.booleans())]
            argv += [arg for name in ORDER_FREE_METRICS for arg in ("--metric", name)]

            def run(ref_paths):
                ref_args = [arg for ref in ref_paths for arg in ("--ref", ref)]
                code, out, err = run_main(argv + ref_args)
                assert (code, err) == (0, "")
                return json.loads(out)

            order = data.draw(st.permutations(refs))
            forward, reordered = run(refs), run(order)
        assert reordered["metrics"] == forward["metrics"]
        assert reordered["corpus"] == forward["corpus"]
        assert reordered["config"] == {**forward["config"], "refs": order}


# The scoring options that ``score`` echoes, each with its default first.
ECHOED = {
    "ref_count": ("1", "2"),
    "max_ngram": ("4", "2"),
    "synonym_score": ("0.9", "0.5"),
    "rare_words_percent": ("0.1", "0.5"),
    "rare_words_score": ("1.1", "1.0"),
    "epsilon": ("0.0", "0.1"),
    "lowercase": ("False", "True"),
    "split_punct": ("False", "True"),
}
DEFAULT_OPTIONS = {name: values[0] for name, values in ECHOED.items()}
# Paths that differ from run to run, spaces and the echo's field names in them.
ECHO_PATH = st.sampled_from(["h.txt", "my h.txt", "a max_ngram=2 b.txt", "-"])


@st.composite
def like_options(draw, first: dict | None) -> dict | None:
    """The echoed options of a table merged after one scored with ``first``
    (None: no echo lines): mostly the same, now and then with one option
    changed, or with echo lines where ``first`` has none or the reverse."""
    change = draw(st.integers(0, 5))
    if change == 0:
        return DEFAULT_OPTIONS if first is None else None
    if change == 1 and first is not None:
        name = draw(st.sampled_from(sorted(ECHOED)))
        return {**first, name: ECHOED[name][first[name] == ECHOED[name][0]]}
    return first


@st.composite
def echo_lines(draw, options: dict | None) -> list[str]:
    """The two lines that ``score`` writes atop a table scored with
    ``options``, under drawn paths; none for None."""
    if options is None:
        return []
    hyp, ref, lexicon = (draw(ECHO_PATH) for _ in range(3))
    scoring = " ".join(f"{k}={v}" for k, v in options.items() if k != "ref_count")
    return [
        f"# pairs=1 ref_count={options['ref_count']} hypothesis_tokens=3",
        f"# metrics=bleu hyp={hyp} refs={ref} lexicon={lexicon} {scoring}",
    ]


@st.composite
def table_bytes(draw, names, clean, echo=()):
    """A score table for ``names`` under the ``echo`` lines, and whether it
    is malformed: a clean one has at least one data row and no malformed
    line."""
    row = st.lists(CELL, min_size=len(names), max_size=len(names))
    rows = draw(st.lists(row, min_size=int(clean), max_size=6))
    header = list(names)
    faults = [None] if clean else [None, "ragged", "text", "non-finite", "duplicate"]
    fault = draw(st.sampled_from(faults))
    if fault == "duplicate":
        header.append(header[0])
        rows = [row + ["1"] for row in rows]
    elif fault and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "ragged":
            row.append("1")
        else:
            cell = draw(st.integers(0, len(row) - 1))
            row[cell] = "oops" if fault == "text" else "nan"
    else:
        fault = None
    sep = draw(st.sampled_from(["\t", " ", "\t\t"]))
    lines = [sep.join(header)] + [sep.join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# note", " "])))
    # A header needs at least one data row under it.
    return draw(file_bytes([*echo, *lines])), fault is not None or not rows


def library_correlate(paths: list[str], kind: str, bins: int | None) -> dict:
    """The correlations of ``mteval correlate --format json`` from the library,
    on the rows of every table read alone, concatenated."""
    tables = [read_score_table(path) for path in paths]
    rows = tuple(row for table in tables for row in table.rows)
    table = ScoreTable(tables[0].metric_names, rows)
    kinds = ["pearson", "spearman"] if kind == "both" else [kind]
    matrices = {k: correlation_matrix(table, k) for k in kinds}
    payload = {
        k: [[cell.coefficient for cell in row] for row in matrix]
        for k, matrix in matrices.items()
    }
    if "spearman" in matrices:
        payload["spearman_p"] = [
            [cell.two_tailed_p for cell in row] for row in matrices["spearman"]
        ]
    if bins is not None:
        values, variances = lambda_matrices(table, bins)
        payload["lambda"] = dict(bins=bins, values=values, variances=variances)
    return payload


class TestTableContract:
    @SETTINGS
    @given(st.data())
    def test_correlate_equals_the_library_or_an_error_names_the_table(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            files = Files(Path(tmp), data.draw)
            content, malformed = data.draw(table_bytes(data.draw(NAMES), files.clean))
            path = files.add(data.draw, "table.tsv", content, fault=malformed)
            kind = data.draw(st.sampled_from(["pearson", "spearman", "both"]))
            bins = data.draw(st.sampled_from([None, 2, 3]))
            argv = ["correlate", "--table", path, "--kind", kind, "--format", "json"]
            if bins is not None:
                argv += ["--lambda", "--bins", str(bins)]
            code, out, err = run_main(argv)
            if files.faulty:
                assert_names_a_faulty_file(code, err, files)
                return
            try:
                expected = library_correlate([path], kind, bins)
            except MTEvalError:
                # The table reads, but a statistic is undefined on it.
                files.faulty.add(path)
                assert code == 1
                assert_names_a_faulty_file(code, err, files)
                return
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert {key: payload[key] for key in expected} == expected

    @SETTINGS
    @given(st.data())
    def test_report_equals_the_tables_or_an_error_names_one(self, data):
        # ``correlate`` over repeated --table options: the library on the
        # tables' rows, or an error naming a table that does not read or
        # that differs from the first in its header or its echoed options.
        with tempfile.TemporaryDirectory() as tmp:
            files = Files(Path(tmp), data.draw)
            names = data.draw(NAMES)
            first = data.draw(st.sampled_from([None, DEFAULT_OPTIONS]))
            paths = []
            for k in range(data.draw(st.integers(1, 3))):
                # Now and then a table whose columns differ from the first's.
                same = k == 0 or data.draw(st.integers(0, 5))
                own = names if same else names[::-1] + ["x"]
                options = first if k == 0 else data.draw(like_options(first))
                echo = data.draw(echo_lines(options))
                content, malformed = data.draw(table_bytes(own, files.clean, echo))
                path = files.add(data.draw, f"t{k}.tsv", content, fault=malformed)
                if not same or options != first:
                    files.faulty.add(path)
                paths.append(path)
            kind = data.draw(st.sampled_from(["pearson", "spearman", "both"]))
            argv = ["correlate", *(arg for path in paths for arg in ("--table", path))]
            code, out, err = run_main([*argv, "--kind", kind, "--format", "json"])
            if files.faulty:
                assert_names_a_faulty_file(code, err, files)
                return
            try:
                expected = library_correlate(paths, kind, None)
            except MTEvalError:
                files.faulty.update(paths)
                assert_names_a_faulty_file(code, err, files)
                return
            assert (code, err) == (0, "")
            payload = json.loads(out)
            rows = sum(len(read_score_table(path).rows) for path in paths)
            assert (payload["tables"], payload["rows"]) == (paths, rows)
            assert {key: payload[key] for key in expected} == expected
