"""Shared fixture builders for the test suite."""

from pathlib import Path

import numpy as np

from seqmodes._streams import keyed_generator
from seqmodes.corpus import TokenStream
from seqmodes.distribution import (
    Alphabet,
    Language,
    conditional_operator,
    fundamental_tensor,
    random_doubly_stochastic_language,
)

CORPUS_TAG = 9000


def write_token_stream(stream: TokenStream, path: str | Path) -> None:
    """Write a corpus file: the ``#alphabet`` header, then one document a line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#alphabet {stream.alphabet_size}\n")
        for doc in stream.records:
            fh.write(" ".join(map(str, doc.tolist())) + "\n")


def sample_bigram_corpus(lang: Language, n_docs: int, doc_len: int, seed: int) -> TokenStream:
    """Documents sampled from a K=2 language as a first-order chain."""
    assert lang.K == 2
    op = conditional_operator(lang, 1, 1)
    start = fundamental_tensor(lang, 1)
    rng = keyed_generator(seed, CORPUS_TAG)
    docs = []
    for _ in range(n_docs):
        doc = [int(rng.choice(lang.size, p=start))]
        for _ in range(doc_len - 1):
            doc.append(int(rng.choice(lang.size, p=op.matrix[:, doc[-1]])))
        docs.append(tuple(doc))
    return TokenStream(records=tuple(docs), alphabet_size=lang.size)


def k3_language_with_balanced_front(seed: int = 0) -> Language:
    """K=3 language whose first two positions have a doubly stochastic joint."""
    base = random_doubly_stochastic_language(seed, 2)
    rng = np.random.default_rng(seed + 100)
    cond3 = rng.dirichlet(np.ones(2), size=4)
    joint = np.empty((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            joint[x1, x2, :] = base.joint[x1, x2] * cond3[x1 * 2 + x2]
    return Language(alphabet=Alphabet(2), K=3, joint=joint)
