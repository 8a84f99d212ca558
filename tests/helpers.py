"""Small corpus builders shared across test modules."""

from __future__ import annotations

import random

from mteval import EvalPair, ParallelCorpus, tokenize


def pair_of(hyp: str, *refs: str) -> EvalPair:
    return EvalPair(
        hypothesis=tokenize(hyp), references=tuple(tokenize(r) for r in refs)
    )


def corpus_of(*rows: tuple) -> ParallelCorpus:
    """Each row is (hypothesis, ref1[, ref2, ...]) as plain strings."""
    pairs = tuple(pair_of(*row) for row in rows)
    return ParallelCorpus(pairs=pairs, ref_count=len(pairs[0].references))


def random_sentence(rng: random.Random, vocab: list[str], max_len: int, min_len: int = 0) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))


def random_corpus(
    rng: random.Random,
    vocab: list[str],
    max_pairs: int,
    max_len: int,
    min_len: int = 1,
) -> ParallelCorpus:
    rows = [
        (
            random_sentence(rng, vocab, max_len, min_len),
            random_sentence(rng, vocab, max_len, min_len),
        )
        for _ in range(rng.randint(1, max_pairs))
    ]
    return corpus_of(*rows)


def block_moved_pair(
    rng: random.Random, vocab: list[str], ref_len: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A random reference and a hypothesis made from it by 1-4 block moves
    of up to 8 tokens, then up to ref_len // 8 substitutions, insertions
    or deletions."""
    ref = [rng.choice(vocab) for _ in range(ref_len)]
    hyp = list(ref)
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, min(8, len(hyp)))
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i : i + length]
        del hyp[i : i + length]
        pos = rng.randint(0, len(hyp))
        hyp[pos:pos] = block
    for _ in range(rng.randint(0, ref_len // 8)):
        k = rng.randrange(len(hyp))
        op = rng.choice(("sub", "ins", "del"))
        if op == "sub":
            hyp[k] = rng.choice(vocab)
        elif op == "ins":
            hyp.insert(k, rng.choice(vocab))
        elif len(hyp) > 1:
            del hyp[k]
    return tuple(hyp), tuple(ref)
