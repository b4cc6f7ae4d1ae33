"""The commutator Gram matrix K of ``matalg.wedderburn_signature`` and the
draws of a signature.

On an indexed span with partial-permutation generators, K is summed from
pairs of entries on index tables (``_pair_gram``); any other span takes the
chunked sparse products (``_sparse_gram``).  Both are exact sums of
unit-phase products on the spans the suites sign, so they agree entry for
entry on every span that a 30-case suite run signs and on both sides of the
S3 scale ladder's L_3 and Q_3, and the pair path is taken on every one.
A signature draws ``standard_normal(2 dim Z)`` once, on the first attempt,
on the suite run's spans and on a scrambled ``span_closure`` span: every
later value of a groupoid case depends on that stream."""
import contextlib
import io

import numpy as np
import pytest
from oracles import s3_ladder, s3_q3

from skewprod import cli, duality, groupoids, matalg

SUITE_RUN = ["suite", "run", "--seed", "0", "--cases", "30", "--kinds",
             "graph,free-action,groupoid", "--json"]


@pytest.fixture(scope="module")
def grams():
    """(span, K by the path taken, pair path taken) for every span that the
    suite run signs, then the two sides of Q_3 and of L_3 over S3, in order."""
    grams, signed = [], []
    pair_gram, sparse_gram = matalg._pair_gram, matalg._sparse_gram
    signature = matalg.wedderburn_signature

    def recording_pair_gram(span):
        K = pair_gram(span)
        grams.append([span, K, K is not None])
        return K

    def recording_sparse_gram(span):
        grams[-1][1] = sparse_gram(span)
        return grams[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matalg, "wedderburn_signature",
                   lambda span, rng=None: signed.append(span) or signature(span, rng))
        mp.setattr(matalg, "_pair_gram", recording_pair_gram)
        mp.setattr(matalg, "_sparse_gram", recording_sparse_gram)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(SUITE_RUN) == 0
        assert groupoids.certify_full_groupoid(*s3_q3()).passed
        assert [span for span, _, _ in grams] == signed  # one K per signature
        # direct-iso signs nothing past its dimension cap, as on L_3 (d = 8100),
        # whose d x d eigenvectors would take a gigabyte: K alone is compared.
        parts = duality.DualityParts(*s3_ladder(3))
        for span in (parts.acp.span, parts.target):
            matalg._pair_gram(span)
    return grams


def _canonical(K):
    K = K.tocsr().sorted_indices()
    return K.shape, K.indptr.tolist(), K.indices.tolist(), K.data.tolist()


def test_pair_path_engages_on_every_span(grams):
    # Two signatures for each of the 30 suite cases (direct-iso, free-action
    # or full-groupoid), then Q_3 and L_3.
    assert len(grams) == 2 * 30 + 4
    assert [span.name for span, _, pair in grams if not pair] == []


def test_pair_gram_equals_the_sparse_gram(grams):
    # Both sum exact unit-phase products and drop exact zeros, so the same
    # cells hold the same values, and _block_eigh sees the same matrix.
    for span, K, _ in grams:
        assert _canonical(K) == _canonical(matalg._sparse_gram(span)), span.name
    assert [span.dim for span, _, _ in grams[-4:]] == [972, 972, 8100, 8100]


def _scrambled():
    # M_2 (+) M_1 conjugated by a random unitary: dense rows, no support index.
    u, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3, 2)) @ [1, 1j])
    gens = (np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.eye(3)[[1, 0, 2]])
    return matalg.span_closure([u @ g @ u.conj().T for g in gens])


def test_signature_draws_once_per_centre_dimension(grams):
    scrambled = _scrambled()
    assert scrambled.support is None and matalg._pair_gram(scrambled) is None
    spans = [span for span, _, _ in grams[:-4]] + [scrambled]  # the suite run's, and one more
    for seed, span in enumerate(spans):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        signature = matalg.wedderburn_signature(span, rng)
        twin.standard_normal(2 * len(signature))
        assert rng.bit_generator.state == twin.bit_generator.state, span.name
    assert matalg.wedderburn_signature(scrambled) == (1, 2)
