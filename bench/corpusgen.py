"""Seeded synthetic corpora for the mteval benchmark.

A corpus is a hypothesis file, one file per reference and a synonym
lexicon, written into a caller-chosen directory. Everything is derived
from one integer seed through ``random.Random``, so the same seed gives
byte-identical files and a different seed gives different content.

What a seed may change is the content, never the cost profile. Sentence
lengths come from fixed quantiles of a log-normal profile and are only
shuffled by the seed; the number of substitutions, synonym swaps and
phrase block moves per sentence is a fixed function of its length.
With lengths drawn at random, one unlucky long sentence dominates TER.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_VOCABULARY = 8000
# Zipf-Mandelbrot weights (rank + 2.7) ** -1: the top word is ~3.5% of tokens.
_ZIPF_OFFSET = 2.7
_FUNCTION_WORDS = 100
_LEXICON_SETS = 2000
_MIN_LEN = 3
_SUB_RATE = 0.10  # share of hypothesis tokens replaced by another word
_SYN_RATE = 0.10  # share of hypothesis tokens swapped for a synonym
_MOVE_LENGTH = 3
_MOVE_DISTANCE = 4


@dataclass(frozen=True)
class Profile:
    """The shape of one workload's generated input."""

    pairs: int
    refs: int
    median_len: float  # median sentence length in tokens
    sigma: float  # log-normal shape of the length profile
    max_len: int
    tokens_per_move: int  # one phrase block move per this many tokens
    ref_edit_rate: float  # share of each reference's tokens changed from the base

    def lengths(self) -> list[int]:
        """Sentence lengths at the fixed quantiles (i + 0.5) / pairs, ascending."""
        dist = statistics.NormalDist(math.log(self.median_len), self.sigma)
        return [
            min(self.max_len, max(_MIN_LEN, round(math.exp(dist.inv_cdf((i + 0.5) / self.pairs)))))
            for i in range(self.pairs)
        ]


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        words.setdefault(word, None)
    return list(words)


def _lexicon(
    rng: random.Random, vocab: list[str], sets: int
) -> tuple[list[list[str]], dict[str, list[str]]]:
    """Disjoint synonym sets of two or three words below the top ranks.

    The most frequent words play the part of function words and get no
    synonyms: whether one of them did would otherwise change the cost of
    a whole corpus from one seed to the next.
    """
    pool = vocab[_FUNCTION_WORDS : _FUNCTION_WORDS + sets * 3]
    rng.shuffle(pool)
    groups: list[list[str]] = []
    pos = 0
    while len(groups) < sets and pos + 2 <= len(pool):
        size = rng.choice((2, 2, 3))
        groups.append(pool[pos : pos + size])
        pos += size
    synonyms = {w: [s for s in group if s != w] for group in groups for w in group}
    return groups, synonyms


def _positions(rng: random.Random, n: int, rate: float) -> list[int]:
    return rng.sample(range(n), min(n, round(rate * n)))


def _swap_synonyms(
    rng: random.Random, tokens: list[str], rate: float, synonyms: dict[str, list[str]]
) -> None:
    candidates = [i for i, w in enumerate(tokens) if w in synonyms]
    for i in rng.sample(candidates, min(len(candidates), round(rate * len(tokens)))):
        tokens[i] = rng.choice(synonyms[tokens[i]])


def _block_move(rng: random.Random, tokens: list[str]) -> None:
    """Move one three-token phrase by four positions, left or right.

    Moves stay local, as most reorderings between languages do. Size
    and distance are fixed because the cost of TER's shift search
    depends on both, and it should not change from one seed to the next.
    """
    if len(tokens) < _MOVE_LENGTH + 3:
        return
    start = rng.randrange(len(tokens) - _MOVE_LENGTH + 1)
    block = tokens[start : start + _MOVE_LENGTH]
    del tokens[start : start + _MOVE_LENGTH]
    target = start + _MOVE_DISTANCE if rng.random() < 0.5 else max(0, start - _MOVE_DISTANCE)
    tokens[target:target] = block


def generate(seed: int, profile: Profile, out_dir: str | Path) -> dict:
    """Write hyp.txt, ref<k>.txt and lexicon.txt into ``out_dir``.

    Returns the file paths and the input statistics (pairs, references,
    length percentiles, lexicon size).
    """
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = _vocabulary(rng, _VOCABULARY)
    cum_weights = list(accumulate(1.0 / (rank + _ZIPF_OFFSET) for rank in range(1, len(vocab) + 1)))
    groups, synonyms = _lexicon(rng, vocab, _LEXICON_SETS)
    lengths = profile.lengths()
    rng.shuffle(lengths)

    def draw(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum_weights, k=k)

    hyps: list[str] = []
    refs: list[list[str]] = [[] for _ in range(profile.refs)]
    for length in lengths:
        base = draw(length)
        for ref_lines in refs:
            ref = list(base)
            for i in _positions(rng, length, profile.ref_edit_rate / 2):
                ref[i] = draw(1)[0]
            _swap_synonyms(rng, ref, profile.ref_edit_rate / 2, synonyms)
            ref_lines.append(" ".join(ref))
        hyp = list(base)
        for i in _positions(rng, length, _SUB_RATE):
            hyp[i] = draw(1)[0]
        _swap_synonyms(rng, hyp, _SYN_RATE, synonyms)
        for _ in range(length // profile.tokens_per_move):
            _block_move(rng, hyp)
        hyps.append(" ".join(hyp))

    hyp_path = out / "hyp.txt"
    hyp_path.write_text("\n".join(hyps) + "\n", encoding="utf-8")
    ref_paths = []
    for k, ref_lines in enumerate(refs):
        path = out / f"ref{k}.txt"
        path.write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
        ref_paths.append(path)
    lexicon_path = out / "lexicon.txt"
    lexicon_path.write_text("".join(", ".join(g) + "\n" for g in groups), encoding="utf-8")

    hyp_lens = [len(h.split()) for h in hyps]
    ref_lens = [len(r.split()) for lines in refs for r in lines]
    return {
        "hyp": str(hyp_path),
        "refs": [str(p) for p in ref_paths],
        "lexicon": str(lexicon_path),
        "stats": {
            "pairs": profile.pairs,
            "refs": profile.refs,
            "hyp_len": _percentiles(hyp_lens),
            "ref_len": _percentiles(ref_lens),
            "lexicon_sets": len(groups),
            "lexicon_words": len(synonyms),
        },
    }


def percentile(values: list[float], pct: float) -> float:
    """The sample at rank ``pct`` percent of ``values``, without interpolation."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(pct / 100 * len(ordered)))]


def _percentiles(values: list[int]) -> dict[str, int]:
    quantiles = {f"p{q}": percentile(values, q) for q in (10, 50, 90)}
    return {**quantiles, "max": max(values)}
