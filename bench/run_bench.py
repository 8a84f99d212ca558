"""Seeded end-to-end benchmark of ``mteval score``.

    python3 bench/run_bench.py --workload suite-corpus --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from ``--seed`` under ``.bench_work/`` in
the checkout, checks the CLI against the committed golden outputs, then
for ``--seconds`` runs the real CLI (``python -m mteval score``) in a
fresh process at a time. Golden digests are committed for the corpora of
seeds ``0 .. GOLDEN_SEEDS - 1``; ``--seed N`` generates corpus
``N mod GOLDEN_SEEDS``, so every run is checked against one of them. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: median wall time of one
invocation, pairs scored per second, set-up time (fresh interpreter,
import, corpus and lexicon load) and the child's own peak RSS. The two
times are scaled to a nominal host speed, see ``reference_s``.
``--trace 1`` instead alternates traced and untraced in-process runs
(``traced.py``) and reports per-layer self times and counters, unscaled.

The program under test is imported from ``src/`` of the checkout that
holds this file; the benchmark never edits it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
sys.path.insert(0, str(BENCH))

from corpusgen import Profile, generate  # noqa: E402
from traced import summarize, unit  # noqa: E402

CHILD_TIMEOUT_S = 150
# Corpus seeds whose workload outputs have a committed golden digest.
GOLDEN_SEEDS = 100
MIN_SAMPLES = 3
# Median time of reference_s on the host the baseline was recorded on
# (a 2-vCPU Xeon VM at 2.1 GHz).
REFERENCE_NOMINAL_S = 0.40
SIX_METRICS = ("ebleu", "bleu", "nist", "meteor", "lepor", "ribes")
SEVEN_METRICS = ("ebleu", "bleu", "nist", "ter", "meteor", "lepor", "ribes")

# Scores land in a realistic range: BLEU ~43, METEOR ~70 on the suite
# corpus; BLEU ~24, RIBES ~80 on the TER corpus.
SUITE_PROFILE = Profile(
    pairs=1000, refs=2, median_len=24, sigma=0.4, max_len=80,
    tokens_per_move=15, ref_edit_rate=0.15,
)
# TER's shift search grows with about the fourth power of sentence
# length, so a long tail lets the content of its few longest pairs set
# the run time of a whole seed (one 42-token pair held 15% of a
# 200-pair corpus). Many short pairs in a narrow profile keep the
# seed-to-seed spread of the TER work near 3%.
TER_PROFILE = Profile(
    pairs=400, refs=1, median_len=16, sigma=0.2, max_len=30,
    tokens_per_move=7, ref_edit_rate=0.10,
)
GOLDEN_PROFILE = Profile(
    pairs=12, refs=2, median_len=12, sigma=0.3, max_len=20,
    tokens_per_move=6, ref_edit_rate=0.15,
)


def _metric_flags(metrics) -> list[str]:
    return [flag for m in metrics for flag in ("--metric", m)]


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Profile
    options: tuple[str, ...]  # score options besides the input files and --out
    lexicon: bool  # whether the CLI is given the lexicon

    def argv(self, out: str) -> list[str]:
        refs = [flag for k in range(self.profile.refs) for flag in ("--ref", f"ref{k}.txt")]
        lexicon = ["--lexicon", "lexicon.txt"] if self.lexicon else []
        return ["score", "--hyp", "hyp.txt", *refs, *lexicon, *self.options, "--out", out]

    def fingerprint(self) -> str:
        """Identifies the inputs and options that a golden digest was made with."""
        return hashlib.sha256(repr((self.profile, self.argv("out"))).encode()).hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-corpus", SUITE_PROFILE, (*_metric_flags(SIX_METRICS), "--format", "tsv"), True
        ),
        Workload(
            "suite-sentence",
            SUITE_PROFILE,
            (*_metric_flags(SIX_METRICS), "--per-sentence", "--format", "json"),
            True,
        ),
        Workload(
            "ter-reorder",
            TER_PROFILE,
            ("--metric", "ter", "--per-sentence", "--format", "tsv"),
            False,
        ),
    )
}
GOLDEN_WORKLOAD = Workload(
    "golden",
    GOLDEN_PROFILE,
    (*_metric_flags(SEVEN_METRICS), "--format", "json", "--per-sentence"),
    True,
)
GOLDEN_SEED = 0

_SETUP_CODE = """\
import sys
import mteval.cli as cli
cfg = cli.TokenizerConfig()
hyp, lexicon, *refs = sys.argv[1:]
cli.load_parallel_corpus(hyp, refs, cfg)
if lexicon:
    cli.load_synonym_lexicon(lexicon, cfg)
"""


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; wall time and its own peak RSS.

    The peak RSS comes from ``os.wait4`` on this child's pid.
    ``RUSAGE_CHILDREN`` would report the maximum over every child so far
    and hide a memory reduction.
    """
    err_path = cwd / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, stderr)


def reference_s() -> float:
    """Wall time of a fixed pure-Python task that shares no code with mteval.

    The speed of a shared VM drifts: the same work took up to 50% longer
    from one minute to the next. This task is timed between the CLI runs,
    and the reported times are multiplied by ``REFERENCE_NOMINAL_S`` over
    its median. That cancels the drift and leaves any change in mteval.
    """
    start = time.perf_counter()
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(4000)]
    tokens = rng.choices(vocab, k=40000)
    for n in (1, 2, 3, 4):
        counts = Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_digests(workload: Workload) -> dict[str, str]:
    """Committed stdout digests of a workload by seed, if made with these inputs."""
    table = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8")).get(workload.name)
    if table is None or table["fingerprint"] != workload.fingerprint():
        return {}
    return table["seeds"]


def check_golden_file(work: Path) -> bool:
    """The seven-metric per-sentence JSON of the golden corpus, byte for byte."""
    gdir = work / "golden"
    generate(GOLDEN_SEED, GOLDEN_WORKLOAD.profile, gdir)
    child = spawn([sys.executable, "-m", "mteval", *GOLDEN_WORKLOAD.argv("out.json")], gdir)
    expected = (GOLDEN / "seven_metrics.json").read_bytes()
    ok = child.rc == 0 and (gdir / "out.json").read_bytes() == expected
    if not ok:
        print(f"golden seven-metric output differs (rc={child.rc}) {child.stderr[-500:]}",
              file=sys.stderr)
    return ok


class OutputCheck:
    """Byte-identity of each run's output with a committed golden digest.

    ``expected`` is None when no digest was committed for these inputs
    (the workload's profile or options changed since ``make_golden.py``
    last ran); then every run fails.
    """

    def __init__(self, expected: str | None) -> None:
        self.expected = expected

    def __call__(self, rc: int, out: Path) -> bool:
        if rc != 0 or self.expected is None or not out.exists():
            return False
        return digest(out) == self.expected


def measure_cli(workload: Workload, work: Path, seconds: float, check: OutputCheck):
    """End-to-end metrics from CLI invocations alternating with set-up probes."""
    walls, rss, setups, references = [], [], [], []
    failed = 0
    refs = [f"ref{k}.txt" for k in range(workload.profile.refs)]
    lexicon = "lexicon.txt" if workload.lexicon else ""
    setup_argv = [sys.executable, "-c", _SETUP_CODE, "hyp.txt", lexicon, *refs]
    cli_argv = [sys.executable, "-m", "mteval", *workload.argv("out.txt")]
    deadline = time.perf_counter() + seconds
    attempted = 0
    while time.perf_counter() < deadline or attempted < 2 * MIN_SAMPLES:
        (work / "out.txt").unlink(missing_ok=True)
        child = spawn(cli_argv, work)
        references.append(reference_s())
        probe = spawn(setup_argv, work)
        references.append(reference_s())
        attempted += 2
        if child.rc == 0:
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
        if not check(child.rc, work / "out.txt"):
            failed += 1
            print(f"run failed (rc={child.rc}) {child.stderr[-500:]}", file=sys.stderr)
        if probe.rc == 0:
            setups.append(probe.wall_s)
        else:
            failed += 1
            print(f"set-up probe failed (rc={probe.rc}) {probe.stderr[-500:]}", file=sys.stderr)
    if not walls or not setups:
        return attempted, failed, None
    raw_wall, raw_setup = statistics.median(walls), statistics.median(setups)
    reference = statistics.median(references)
    scale = REFERENCE_NOMINAL_S / reference
    wall = raw_wall * scale
    print(f"samples: {len(walls)} invocations, {len(setups)} set-up probes, "
          f"{len(references)} reference runs; unscaled medians: wall_s {raw_wall:.4f}, "
          f"setup_s {raw_setup:.4f}, reference {reference:.4f} (nominal {REFERENCE_NOMINAL_S})")
    return attempted, failed, {
        "wall_s": (wall, "s"),
        "pairs_per_s": (workload.profile.pairs / wall, "1/s"),
        "setup_s": (raw_setup * scale, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def measure_trace(workload: Workload, work: Path, seconds: float, check: OutputCheck):
    """Per-layer metrics from traced in-process runs, alternated with untraced ones."""
    reports: dict[bool, list[dict]] = {True: [], False: []}
    failed = 0
    deadline = time.perf_counter() + seconds
    attempted = 0
    while time.perf_counter() < deadline or attempted < 2 * MIN_SAMPLES:
        for trace in (True, False):
            (work / "out.txt").unlink(missing_ok=True)
            flags = ["--trace"] if trace else []
            argv = [sys.executable, str(BENCH / "traced.py"), "report.json", *flags,
                    "--", *workload.argv("out.txt")]
            child = spawn(argv, work)
            attempted += 1
            report = json.loads((work / "report.json").read_text()) if child.rc == 0 else None
            if report is not None:
                reports[trace].append(report)
            if report is None or not check(report["rc"], work / "out.txt"):
                failed += 1
                print(f"traced={trace} run failed (rc={child.rc}) {child.stderr[-500:]}",
                      file=sys.stderr)
    if not reports[True] or not reports[False]:
        return attempted, failed, None
    print(f"samples: {len(reports[True])} traced, {len(reports[False])} untraced runs")
    values = summarize(reports[True], reports[False])
    return attempted, failed, {name: (value, unit(name)) for name, value in values.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; the result object printed as the last line."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=ROOT / ".bench_work"))
    try:
        corpus = seed % GOLDEN_SEEDS
        info = generate(corpus, workload.profile, work)
        print(f"workload {workload.name} seed {seed} (corpus {corpus}): "
              f"inputs {json.dumps(info['stats'])}")
        golden_ok = check_golden_file(work)
        check = OutputCheck(golden_digests(workload).get(str(corpus)))
        if check.expected is None:
            print(f"no committed golden digest for {workload.name} corpus {corpus}: "
                  "every run counts as failed", file=sys.stderr)
        if trace:
            attempted, failed, metrics = measure_trace(workload, work, seconds, check)
        else:
            attempted, failed, metrics = measure_cli(workload, work, seconds, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run's directory is still there
            pass
    if metrics is None:
        raise RuntimeError(f"{workload.name}: no successful run ({failed} failed)")
    attempted += 1
    failed += 0 if golden_ok else 1
    for name, (value, label) in metrics.items():
        print(f"{name:36s} {value:14.6f} {label}")
    print(f"{'failed_frac':36s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": label} for name, (value, label) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"input corpus; seed N generates corpus N mod {GOLDEN_SEEDS}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mteval" / "cli.py").is_file():
        print(f"error: no mteval sources under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
