"""Rewrite the committed golden outputs from the current ``src/``.

    python3 bench/make_golden.py

Writes ``golden/seven_metrics.json``, the ``mteval score --format json
--per-sentence`` output of all seven metrics on the small golden corpus,
and ``golden/digests.json``, the sha256 of each workload's output for
corpus seeds ``0 .. GOLDEN_SEEDS - 1``. Run it only at a commit whose
scores are known good: every later benchmark run is checked byte for byte
against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run_bench import (
    GOLDEN, GOLDEN_SEED, GOLDEN_SEEDS, GOLDEN_WORKLOAD, ROOT, SRC, WORKLOADS, digest, generate,
)

sys.path.insert(0, str(SRC))
import mteval.cli  # noqa: E402


def score(workload, seed: int, work: Path) -> Path:
    """The CLI's output file for one workload and seed, run in this process."""
    generate(seed, workload.profile, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if mteval.cli.main(workload.argv("out.txt")) != 0:
            raise RuntimeError(f"{workload.name} seed {seed}: mteval score failed")
    finally:
        os.chdir(cwd)
    return work / "out.txt"


def main() -> None:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=ROOT / ".bench_work"))
    try:
        seven = score(GOLDEN_WORKLOAD, GOLDEN_SEED, work / "seven")
        shutil.copyfile(seven, GOLDEN / "seven_metrics.json")
        table = {}
        for workload in WORKLOADS.values():
            seeds = {
                str(seed): digest(score(workload, seed, work / workload.name))
                for seed in range(GOLDEN_SEEDS)
            }
            table[workload.name] = {"fingerprint": workload.fingerprint(), "seeds": seeds}
            print(f"{workload.name}: {GOLDEN_SEEDS} seeds", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "digests.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
