"""Parallel word count (paper IV-B).

The paper uses the 21 GB Spanish Wikipedia dump and notes that, without
an input file, "the benchmark will automatically generate a synthetic
dataset from a fixed seed" — which is exactly what this module does: a
Zipf-distributed corpus with heavy-tailed line lengths (the load
imbalance that makes dynamic scheduling shine in Fig. 7).

PyOMP cannot run it: its Numba release "lacks support for compiling
Python dictionaries" — reproduced by the envelope checker.

Per-thread dictionaries merge under a ``critical`` section; the loop
uses ``schedule(runtime)`` for the Fig. 7 policy sweep.
"""

from __future__ import annotations

import itertools
import random

from repro.apps.base import AppSpec
from repro.api import omp

_VOWELS = "aeiou"
_CONSONANTS = "bcdfglmnprstv"


def _make_vocabulary(size: int, rng: random.Random) -> list[str]:
    vocabulary = set()
    while len(vocabulary) < size:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(syllables))
        vocabulary.add(word)
    return sorted(vocabulary)


def make_corpus(lines: int, vocabulary_size: int = 2000,
                seed: int = 777) -> list[str]:
    rng = random.Random(seed)
    vocabulary = _make_vocabulary(vocabulary_size, rng)
    # Zipf ranks: word k drawn with weight 1/(k+1).  Cumulated once:
    # ``choices(weights=...)`` would redo it on every line, and does
    # the same ``accumulate``, so the draws are the same.
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(vocabulary_size)))
    corpus = []
    for index in range(lines):
        # Heavy-tailed line lengths: a few article-sized lines among
        # many stubs, like a wiki dump.
        if index % 97 == 0:
            length = rng.randint(200, 400)
        else:
            length = rng.randint(3, 30)
        corpus.append(" ".join(
            rng.choices(vocabulary, cum_weights=cum_weights, k=length)))
    return corpus


def make_input(lines: int = 0, vocabulary_size: int = 2000,
               seed: int = 777, path: str | None = None) -> dict:
    """Build the corpus: from ``path`` when given (the paper's artifact
    accepts the Wikipedia dump as a file argument), otherwise the
    synthetic fixed-seed dataset the paper falls back to."""
    if path is not None:
        with open(path, encoding="utf-8", errors="replace") as handle:
            corpus = handle.read().splitlines()
    else:
        corpus = make_corpus(lines, vocabulary_size, seed)
    return {"corpus": corpus, "count": len(corpus)}


def sequential(corpus, count):
    counts: dict[str, int] = {}
    for index in range(count):
        for word in corpus[index].split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def kernel(corpus, count, threads):
    counts = {}
    with omp("parallel num_threads(threads)"):
        local = {}
        with omp("for schedule(runtime) nowait"):
            for index in range(count):
                for word in corpus[index].split():
                    local[word] = local.get(word, 0) + 1
        with omp("critical(wordcount_merge)"):
            for word in local:
                counts[word] = counts.get(word, 0) + local[word]
    return counts


def shard_map(nshards: int):
    """The planned merge's indirection map: iteration = shard id,
    element = that shard — no two iterations share an element, so the
    plan is a single color and the whole merge runs lock-free."""
    from repro.plan import Map
    return Map("wordcount-shards", [(shard,) for shard in range(nshards)])


def kernel_planned(corpus, count, threads, runtime=None):
    """Inspector–executor word count: a sharded, planned merge
    replaces the ``critical(wordcount_merge)`` section.

    The counting phase buckets each thread's tallies into
    ``hash(word) % nshards`` shard dictionaries; the merge phase is a
    plan over shard ids — every shard is touched by exactly one
    partition, so the plan has one color and each thread folds its
    owned shards from all workers without a lock, instead of the
    baseline's serialized whole-dictionary critical section.
    """
    from repro.plan import execute_member, plan_for

    if runtime is None:
        from repro.runtime import pure_runtime as runtime
    nthreads = max(1, threads)
    nshards = 4 * nthreads
    plan = plan_for(shard_map(nshards), 1, runtime=runtime)
    locals_ = [[{} for _ in range(nshards)] for _ in range(nthreads)]
    merged = [{} for _ in range(nshards)]

    def merge_body(lo, hi, thread_num):
        for shard in range(lo, hi):
            out = merged[shard]
            for per_thread in locals_:
                for word, tally in per_thread[shard].items():
                    out[word] = out.get(word, 0) + tally

    def member():
        thread_num = runtime.get_thread_num()
        size = runtime.get_num_threads()
        local = {}
        for index in range(thread_num * count // size,
                           (thread_num + 1) * count // size):
            for word in corpus[index].split():
                local[word] = local.get(word, 0) + 1
        # Shard per *unique* word (one hash per vocabulary entry), not
        # per occurrence — the counting loop stays as cheap as the
        # baseline's.
        shards = locals_[thread_num]
        for word, tally in local.items():
            shard = shards[hash(word) % nshards]
            shard[word] = tally
        # Every thread's shard dictionaries must be complete before
        # any thread starts folding them.
        runtime.barrier()
        execute_member(plan, merge_body, runtime=runtime)

    runtime.parallel_run(member, num_threads=nthreads)
    counts = {}
    for shard in merged:
        counts.update(shard)  # shards are key-disjoint by construction
    return counts


# String splitting and dict updates cannot be lowered to native kernels
# (the paper: "string and dictionary operations, which Cython cannot
# optimize effectively") — the typed pipeline shares the source.
kernel_dt = kernel


def pyomp_kernel(corpus, count, threads):
    counts = {}
    with openmp("parallel for num_threads(threads)"):  # noqa: F821
        for index in range(count):
            for word in corpus[index].split():
                counts[word] = counts.get(word, 0) + 1
    return counts


def verify(result, reference) -> bool:
    return result == reference


SPEC = AppSpec(
    name="wordcount",
    title="Word count",
    make_input=make_input,
    sequential=sequential,
    kernel=kernel,
    kernel_dt=kernel_dt,
    pyomp=pyomp_kernel,
    verify=verify,
    sizes={
        "test": {"lines": 300, "vocabulary_size": 300},
        "default": {"lines": 4000},
        "paper": {"lines": 2_000_000, "vocabulary_size": 200_000},
    },
    table1=None,
)
