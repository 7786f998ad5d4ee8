import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from namecountry import classifier
from namecountry.core import (
    NameRecord, UnknownLabelError, normalize_name, register_taxonomy,
)
from namecountry.classifier import (
    ENCODE_CHUNK_ROWS,
    PAD,
    SCORE_BLOCK_ROWS,
    UNK,
    AdamW,
    CheckpointError,
    ClassifierModel,
    EpochStats,
    ModelConfig,
    NonFiniteLossError,
    Tokenizer,
    TrainConfig,
    TrainLog,
    fit_tokenizer,
    init_params,
    load_model,
    loss_and_grads,
    lr_at_step,
    save_model,
    score_batch,
    tap_tables,
    train,
)


def tiny_corpus():
    return [NameRecord("Aba Cab", "alfa"), NameRecord("Bac Abc", "bravo")]


# --- tokenizer ---

def test_tokenizer_encode_pads_and_truncates():
    tokenizer = Tokenizer(("a", "b", "c"), max_len=5)
    assert tokenizer.vocab_size == 5
    encoded = tokenizer.encode_batch(["ab"])[0]
    assert encoded.tolist() == [2, 3, PAD, PAD, PAD]
    assert tokenizer.encode_batch(["abcabc"])[0].tolist() == [2, 3, 4, 2, 3]


def test_tokenizer_unknown_char_is_unk():
    tokenizer = Tokenizer(("a", "b"), max_len=4)
    assert tokenizer.encode_batch(["axb"])[0].tolist() == [2, UNK, 3, PAD]


def test_tokenizer_normalizes_before_encoding():
    tokenizer = Tokenizer(("a", "b", " "), max_len=6)
    assert np.array_equal(tokenizer.encode_batch(["  a   b "])[0],
                          tokenizer.encode_batch(["a b"])[0])


def test_tokenizer_validation():
    with pytest.raises(ValueError):
        Tokenizer(("a", "a"), max_len=4)
    with pytest.raises(ValueError):
        Tokenizer(("a",), max_len=0)
    for max_len in (2.0, True, "4", None):
        with pytest.raises(ValueError, match="max_len"):
            Tokenizer(("a",), max_len=max_len)
    with pytest.raises(ValueError, match="strings"):
        Tokenizer(("a", 5), max_len=4)


def reference_encode(tokenizer, names):
    """The per-character loop encode_batch replaced; the token contract."""
    index = {c: i + 2 for i, c in enumerate(tokenizer.chars)}
    out = np.zeros((len(names), tokenizer.max_len), dtype=np.int32)
    for row, name in enumerate(names):
        text = normalize_name(name)[: tokenizer.max_len]
        for col, char in enumerate(text):
            out[row, col] = index.get(char, UNK)
    return out


# Token ids of the large tokenizer run past 0xD800, so its last entries have
# ids that are surrogate code points; its filler sits in a plane no name uses.
ENCODE_TOKENIZERS = (
    Tokenizer(("a", "b", " ", "ab", "\u00e9", "e", "\u0301", "\u00c5",
               "\U0001d49c", "\uac00", "\x03"), max_len=6),
    Tokenizer(tuple(chr(c) for c in range(0x20000, 0x20000 + 0xD800))
              + ("a", "b", " ", "ab", "\u00e9", "\U0001d49c", "\uac00"),
              max_len=5),
)
# NFC/NFD pairs (e + U+0301, A + ring, Angstrom sign, Hangul jamo), outside
# the BMP, whitespace that normalization collapses, U+0000 and other control
# characters below every vocab_size, a lone surrogate, and unknown letters.
ENCODE_ALPHABET = ("a", "b", "e", "\u0301", "\u00e9", "A", "\u030a",
                   "\u00c5", "\u212b", "\u1100", "\u1161", "\uac00",
                   "\U0001d49c", "\U0001f600", " ", "\t", "\u3000", "\x00",
                   "\x01", "\x02", "\x03", "\ud800", "z", "q")
NAMES = st.lists(
    st.text(st.sampled_from(ENCODE_ALPHABET), max_size=14)
    | st.text(max_size=8), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ENCODE_TOKENIZERS), NAMES)
def test_encode_batch_matches_reference_loop(tokenizer, names):
    encoded = tokenizer.encode_batch(names)
    assert encoded.dtype == np.int32
    assert encoded.shape == (len(names), tokenizer.max_len)
    assert encoded.flags.writeable
    assert np.array_equal(encoded, reference_encode(tokenizer, names))


def test_encode_batch_across_chunks():
    tokenizer = ENCODE_TOKENIZERS[0]
    rng = np.random.default_rng(0)
    names = ["".join(rng.choice(ENCODE_ALPHABET, size=n))
             for n in rng.integers(0, 12, size=2 * ENCODE_CHUNK_ROWS + 5)]
    assert np.array_equal(tokenizer.encode_batch(names),
                          reference_encode(tokenizer, names))
    assert np.array_equal(tokenizer.encode_batch(names[:0]),
                          np.zeros((0, tokenizer.max_len), dtype=np.int32))


def test_encode_batch_memory_is_flat_in_batch_size():
    """Besides its output, encode_batch holds one chunk's text at a time."""
    tokenizer = Tokenizer(tuple("abcdefghijklmnopqrstuvwxyz "))
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    names = ["".join(rng.choice(letters, size=n)) + " x"
             for n in rng.integers(3, 40, size=20 * ENCODE_CHUNK_ROWS)]

    def extra_bytes(batch):
        tracemalloc.start()
        try:
            out = tokenizer.encode_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    small = extra_bytes(names[:ENCODE_CHUNK_ROWS])
    large = extra_bytes(names)
    assert large < 1.25 * small + 4096, (small, large)


def test_fit_tokenizer_sorted_by_codepoint():
    tokenizer = fit_tokenizer(tiny_corpus(), max_len=8)
    assert tokenizer.chars == (" ", "A", "B", "C", "a", "b", "c")
    with pytest.raises(ValueError):
        fit_tokenizer([], max_len=8)


# --- forward pass ---

def test_init_params_shapes_dtype_and_determinism():
    config = ModelConfig(embedding_dim=6, hidden_dim=9)
    params = init_params(11, 4, config, seed=5)
    assert params["embedding"].shape == (11, 6)
    assert params["conv_w"].shape == (3, 6, 9)
    assert params["conv_b"].shape == (9,)
    assert params["head_w"].shape == (9, 4)
    assert params["head_b"].shape == (4,)
    assert all(v.dtype == np.float32 for v in params.values())
    again = init_params(11, 4, config, seed=5)
    assert all(np.array_equal(params[k], again[k]) for k in params)
    other = init_params(11, 4, config, seed=6)
    assert not np.array_equal(params["embedding"], other["embedding"])


def taps_of(params):
    return tap_tables(params["embedding"], params["conv_w"])


def test_score_batch_rows_are_distributions():
    params = init_params(8, 3, ModelConfig(4, 5), seed=1)
    x = np.array([[2, 3, 0, 0], [4, 5, 6, 7]], dtype=np.int32)
    probs = score_batch(params, x, taps=taps_of(params))
    assert probs.shape == (2, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
    assert (probs > 0).all()


def test_score_batch_bitwise_batch_invariance():
    """The same encoded name must score bit-identically in any batch, at any
    position, in whichever scoring block it lands."""
    rng = np.random.default_rng(7)
    params = init_params(30, 5, ModelConfig(8, 12), seed=2)
    b0 = SCORE_BLOCK_ROWS
    target = rng.integers(2, 30, size=(1, 10)).astype(np.int32)
    target[0, 4] = PAD  # a pad inside the name
    taps = taps_of(params)
    alone = score_batch(params, target, taps=taps)[0]
    empty = score_batch(params, np.zeros((1, 10), dtype=np.int32),
                        taps=taps)[0]
    for batch_size in sorted({2, 17, 64, 301, b0 - 1, b0, b0 + 1, 2 * b0 + 1}):
        filler = rng.integers(0, 30, size=(batch_size - 1, 10)).astype(np.int32)
        filler[-1] = PAD  # an all-pad row
        edges = {0, b0 - 1, b0, 2 * b0, batch_size // 2, batch_size - 1}
        for position in sorted(p for p in edges if p < batch_size):
            batch = np.insert(filler, position, target[0], axis=0)
            scores = score_batch(params, batch, taps=taps)
            assert np.array_equal(scores[position], alone), (batch_size, position)
            for row in np.flatnonzero(~batch.any(axis=1)):
                assert np.array_equal(scores[row], empty), (batch_size, row)


def test_score_batch_all_pad_row_uses_head_bias():
    params = init_params(8, 3, ModelConfig(4, 5), seed=3)
    params["head_b"] = np.array([0.5, -1.0, 2.0], dtype=np.float32)
    probs = score_batch(params, np.zeros((1, 6), dtype=np.int32),
                        taps=taps_of(params))[0]
    bias = params["head_b"]
    expected = np.exp(bias - bias.max())
    expected /= expected.sum()
    assert np.array_equal(probs, expected)


def test_scoring_memory_is_flat_in_batch_size():
    """Peak traced memory per name at a large batch leaves room for the
    encoded input and the (batch, classes) output, and for no temporary that
    grows with batch x positions x hidden."""
    taxonomy = register_taxonomy("k99", [f"c{i:02d}" for i in range(99)])
    tokenizer = Tokenizer(tuple("abcdefghijklmnopqrstuvwxyz "))
    model = ClassifierModel(tokenizer, taxonomy,
                            init_params(tokenizer.vocab_size, 99, seed=0))
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    names = ["".join(rng.choice(letters, size=n)) + " x"
             for n in rng.integers(3, 20, size=20_000)]
    tracemalloc.start()
    try:
        model.predict_batch(names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(names) < 2048, peak


# --- gradients ---

def numeric_grads(params, x, y, eps=1e-6):
    grads = {}
    for key, value in params.items():
        grad = np.zeros_like(value)
        flat, grad_flat = value.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grads(params, x, y)
            flat[i] = orig - eps
            down, _ = loss_and_grads(params, x, y)
            flat[i] = orig
            grad_flat[i] = (up - down) / (2 * eps)
        grads[key] = grad
    return grads


def test_gradients_match_central_differences():
    params = init_params(9, 3, ModelConfig(5, 7), seed=0, dtype=np.float64)
    rng = np.random.default_rng(42)
    x = rng.integers(0, 9, size=(5, 6)).astype(np.int32)
    x[0, 4:] = PAD  # exercise masked pooling
    x[4] = PAD  # an all-pad row pools to zeros
    y = np.array([0, 1, 2, 0, 1])
    _, analytic = loss_and_grads(params, x, y)
    numeric = numeric_grads(params, x, y)
    for key in params:
        a, n = analytic[key], numeric[key]
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n),
                                          1e-12)
        assert rel <= 1e-3, (key, rel)


def dense_loss_and_grads(params, x, y):
    """Reference gradients over every (row, position), padding included:
    three (B, L, E) gathers, per-tap matmuls and an np.add.at scatter."""
    n = x.shape[0]
    pad_col = np.full((n, 1), PAD, dtype=x.dtype)
    shifts = (np.concatenate([pad_col, x[:, :-1]], axis=1), x,
              np.concatenate([x[:, 1:], pad_col], axis=1))
    embedded = [params["embedding"][s] for s in shifts]
    pre = sum(embedded[t] @ params["conv_w"][t] for t in range(3))
    pre = pre + params["conv_b"]
    hidden = np.maximum(pre, 0)
    mask = (x != PAD).astype(np.float64)
    counts = np.maximum(mask.sum(axis=1), 1)
    pooled = (hidden * mask[:, :, None]).sum(axis=1) / counts[:, None]
    logits = pooled @ params["head_w"] + params["head_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), y].mean())

    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), y] -= 1
    d_logits /= n
    grads = {"head_w": pooled.T @ d_logits, "head_b": d_logits.sum(axis=0)}
    d_pooled = d_logits @ params["head_w"].T
    d_hidden = (d_pooled / counts[:, None])[:, None, :] * mask[:, :, None]
    d_hidden *= pre > 0
    grads["conv_b"] = d_hidden.sum(axis=(0, 1))
    e, h = params["conv_w"].shape[1:]
    grads["conv_w"] = np.stack([embedded[t].reshape(-1, e).T
                                @ d_hidden.reshape(-1, h) for t in range(3)])
    grads["embedding"] = np.zeros_like(params["embedding"])
    for t in range(3):
        np.add.at(grads["embedding"], shifts[t],
                  d_hidden @ params["conv_w"][t].T)
    return loss, grads


def mixed_batch(rng, vocab, rows, max_len):
    """Random names over PAD/UNK/characters with every edge case present:
    an all-pad row, a length-1 name, a full-length name, and one with UNK
    at its start and a PAD in its middle."""
    x = rng.integers(UNK, vocab, size=(rows, max_len)).astype(np.int32)
    lengths = rng.integers(1, max_len + 1, size=rows)
    x[np.arange(max_len) >= lengths[:, None]] = PAD
    x[0] = PAD
    x[1, 1:] = PAD
    x[2] = rng.integers(2, vocab, size=max_len)
    x[3] = rng.integers(UNK, vocab, size=max_len)
    x[3, 0], x[3, max_len // 2] = UNK, PAD
    return x


def dense_case(seed):
    """float64 parameters with nonzero biases, a mixed batch and labels."""
    rng = np.random.default_rng(seed)
    vocab, classes = 11, 4
    params = init_params(vocab, classes, ModelConfig(6, 9), seed=seed,
                         dtype=np.float64)
    for key in ("conv_b", "head_b"):
        params[key] = rng.normal(0.0, 0.1, params[key].shape)
    x = mixed_batch(rng, vocab, rows=int(rng.integers(6, 40)), max_len=9)
    return params, x, rng.integers(0, classes, size=len(x))


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_dense_reference(seed):
    params, x, y = dense_case(seed)
    loss, grads = loss_and_grads(params, x, y)
    ref_loss, ref = dense_loss_and_grads(params, x, y)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref.keys()
    for key, expected in ref.items():
        assert grads[key].shape == expected.shape, key
        rel = np.linalg.norm(grads[key] - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12, (key, rel)


@pytest.mark.parametrize("seed", range(4))
def test_score_batch_agrees_with_dense_loss(seed):
    """What is served is what was trained: the mean negative log of
    score_batch's gold-label probabilities is the dense reference's loss."""
    params, x, y = dense_case(seed)
    probs = score_batch(params, x, taps=taps_of(params))
    served = -np.mean(np.log(probs[np.arange(len(x)), y]))
    ref_loss, _ = dense_loss_and_grads(params, x, y)
    assert abs(served - ref_loss) <= 1e-12 * abs(ref_loss)


def assert_matches_dense(params, x, y):
    loss, grads = loss_and_grads(params, x, y)
    ref_loss, ref = dense_loss_and_grads(params, x, y)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for key, expected in ref.items():
        assert grads[key].shape == expected.shape, key
        rel = np.linalg.norm(grads[key] - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12, (key, rel)
    return grads


def test_gradients_match_dense_reference_sparse_vocabulary():
    """A vocabulary far larger than the batch's ids: the step works over the
    batch's own ids, and every other embedding-gradient row is exactly 0."""
    rng = np.random.default_rng(11)
    vocab, classes = 500, 4
    params = init_params(vocab, classes, ModelConfig(6, 9), seed=3,
                         dtype=np.float64)
    used = np.array([UNK, 7, 8, 250, 251, 499])
    x = mixed_batch(rng, len(used) + 1, rows=24, max_len=9)
    x = np.where(x == PAD, PAD, used[np.maximum(x - 1, 0)]).astype(np.int32)
    y = rng.integers(0, classes, size=len(x))
    grads = assert_matches_dense(params, x, y)
    absent = np.setdiff1d(np.arange(vocab), np.append(used, PAD))
    assert not grads["embedding"][absent].any()
    assert grads["embedding"][used].all(axis=1).all()


def test_gradients_match_dense_reference_many_ids():
    """More distinct ids in the batch than 3 * embedding_dim, the size past
    which an im2col step would be the cheaper one: still exact."""
    rng = np.random.default_rng(12)
    vocab, classes = 90, 5
    params = init_params(vocab, classes, ModelConfig(4, 6), seed=4,
                         dtype=np.float64)
    x = mixed_batch(rng, vocab, rows=30, max_len=9)
    assert len(np.unique(x)) > 3 * 4
    assert_matches_dense(params, x, rng.integers(0, classes, size=len(x)))


def bench_shape_batch(rng, rows=64, vocab=44, max_len=40):
    """The bench's batch shape: names of 5-17 tokens over ~43 ids, padded
    to max_len, about 700 tokens in all."""
    x = rng.integers(2, vocab, size=(rows, max_len)).astype(np.int32)
    x[np.arange(max_len) >= rng.integers(5, 18, size=rows)[:, None]] = PAD
    return x


def test_gradients_match_dense_reference_at_bench_shape():
    """The bench's shape (about 43 ids and 700 tokens, 64/128 model, 99
    classes), where the backward indicator has 3 * 44 rows: still exact."""
    rng = np.random.default_rng(13)
    x = bench_shape_batch(rng)
    assert 40 <= len(np.unique(x)) <= 44 and 600 <= (x != PAD).sum() <= 800
    params = init_params(44, 99, seed=5, dtype=np.float64)
    for key in ("conv_b", "head_b"):
        params[key] = rng.normal(0.0, 0.1, params[key].shape)
    assert_matches_dense(params, x, rng.integers(0, 99, size=len(x)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grads_do_not_depend_on_the_id_dtype(dtype):
    """train holds ids in the narrowest dtype that fits its vocabulary: the
    same ids as uint8, uint16 and int32 give the same loss and grads, bit
    for bit."""
    rng = np.random.default_rng(14)
    x = bench_shape_batch(rng)
    x[1, 3] = UNK
    y = rng.integers(0, 99, size=len(x))
    params = init_params(44, 99, seed=6, dtype=dtype)
    loss, grads = loss_and_grads(params, x, y)
    for id_dtype in (np.uint8, np.uint16):
        narrow_loss, narrow_grads = loss_and_grads(params, x.astype(id_dtype), y)
        assert narrow_loss == loss
        for key in params:
            assert np.array_equal(narrow_grads[key].view(np.uint8),
                                  grads[key].view(np.uint8)), (id_dtype, key)


def test_loss_and_grads_memory_at_bench_shape():
    """One float32 step at the bench's shape (64 names of 5-17 tokens padded
    to 40, 43 ids, 64/128 model, 99 classes) peaks below 1.82 MiB of traced
    memory: an im2col step, whose (tokens, 3 * embedding_dim) matrix this
    one does without, peaks at 1.82 MiB on this batch."""
    rng = np.random.default_rng(0)
    x = rng.integers(2, 44, size=(64, 40)).astype(np.int32)
    x[np.arange(40) >= rng.integers(5, 18, size=64)[:, None]] = PAD
    y = rng.integers(0, 99, size=64)
    params = init_params(44, 99, seed=0)
    tracemalloc.start()
    try:
        loss_and_grads(params, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.82 * 2**20, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grads_ignore_trailing_padding(dtype):
    """Extra trailing PAD columns change nothing, bit for bit: the step reads
    only the tokens and their neighbours, whatever max_len is."""
    rng = np.random.default_rng(5)
    params = init_params(13, 5, ModelConfig(8, 12), seed=1, dtype=dtype)
    x = mixed_batch(rng, 13, rows=33, max_len=10)
    y = rng.integers(0, 5, size=len(x))
    wide = np.pad(x, ((0, 0), (0, 20)), constant_values=PAD)
    loss, grads = loss_and_grads(params, x, y)
    wide_loss, wide_grads = loss_and_grads(params, wide, y)
    assert loss == wide_loss
    for key in params:
        assert np.array_equal(grads[key], wide_grads[key]), key


def test_loss_decreases_under_adamw():
    params = init_params(9, 2, ModelConfig(6, 8), seed=1, dtype=np.float64)
    rng = np.random.default_rng(3)
    x = rng.integers(2, 9, size=(16, 6)).astype(np.int32)
    y = (x[:, 0] > 5).astype(np.int64)
    optimizer = AdamW(params)
    first, _ = loss_and_grads(params, x, y)
    for _ in range(60):
        loss, grads = loss_and_grads(params, x, y)
        optimizer.step(params, grads, 0.01)
    assert loss < first * 0.5


class ReferenceAdamW:
    """The allocating AdamW step; AdamW must match it bit for bit."""

    def __init__(self, params, weight_decay):
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, lr):
        self.step_count += 1
        bias1 = 1.0 - self.beta1 ** self.step_count
        bias2 = 1.0 - self.beta2 ** self.step_count
        for key, param in params.items():
            grad = grads[key]
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * param
            param -= lr * update


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_matches_reference_bitwise(dtype, weight_decay):
    params = init_params(9, 3, ModelConfig(5, 7), seed=2, dtype=dtype)
    reference = {k: v.copy() for k, v in params.items()}
    optimizer = AdamW(params, weight_decay=weight_decay)
    expected = ReferenceAdamW(reference, weight_decay)
    rng = np.random.default_rng(4)
    for step in range(1, 21):
        grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), v.shape)
                 .astype(dtype) for k, v in params.items()}
        lr = lr_at_step(step, 20, 3, 0.01)
        optimizer.step(params, grads, lr)
        expected.step(reference, grads, lr)
    for key in params:
        assert params[key].dtype == dtype
        for got, want in ((params[key], reference[key]),
                          (optimizer._m[key], expected._m[key]),
                          (optimizer._v[key], expected._v[key])):
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), key


def test_adamw_matches_reference_bitwise_on_mixed_params():
    """Params of mixed shapes and of both float dtypes, in one dict, not
    made by init_params: each dtype's flat buffer updates every parameter
    as the per-parameter reference does, and the dict keeps its shapes."""
    rng = np.random.default_rng(7)
    shapes = {"a": ((7,), np.float32), "b": ((3, 4, 5), np.float64),
              "c": ((1,), np.float32), "d": ((0, 3), np.float32),
              "e": ((2, 1, 3), np.float64), "f": ((), np.float32)}
    params = {k: rng.normal(0.0, 1.0, shape).astype(dtype)
              for k, (shape, dtype) in shapes.items()}
    reference = {k: v.copy() for k, v in params.items()}
    optimizer = AdamW(params, weight_decay=0.05)
    expected = ReferenceAdamW(reference, 0.05)
    for step in range(1, 16):
        grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), v.shape)
                 .astype(v.dtype) for k, v in params.items()}
        lr = lr_at_step(step, 15, 2, 0.01)
        optimizer.step(params, grads, lr)
        expected.step(reference, grads, lr)
    for key, (shape, dtype) in shapes.items():
        assert params[key].shape == shape and params[key].dtype == dtype
        for got, want in ((params[key], reference[key]),
                          (optimizer._m[key], expected._m[key]),
                          (optimizer._v[key], expected._v[key])):
            assert got.shape == shape
            assert got.tobytes() == want.tobytes(), key


def test_adamw_step_takes_the_params_it_was_built_with():
    params = init_params(9, 3, ModelConfig(5, 7), seed=2)
    optimizer = AdamW(params)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    copies = {k: v.copy() for k, v in params.items()}
    with pytest.raises(ValueError, match="params it was built with"):
        optimizer.step(copies, grads, 0.01)
    with pytest.raises(ValueError, match="params it was built with"):
        optimizer.step({k: params[k] for k in ("embedding", "conv_w")},
                       grads, 0.01)
    assert optimizer.step_count == 0
    optimizer.step(params, grads, 0.01)
    assert not np.array_equal(params["head_b"], copies["head_b"])


def test_adamw_weight_decay_shrinks_unused_weights():
    # zero gradients everywhere: decay alone must shrink the parameter
    params = {"w": np.ones(4, dtype=np.float64)}
    optimizer = AdamW(params, weight_decay=0.1)
    for _ in range(10):
        optimizer.step(params, {"w": np.zeros(4)}, 0.1)
    assert (np.abs(params["w"]) < 1.0).all()


# --- schedule ---

def test_lr_schedule_hand_values():
    base = 2e-5
    assert lr_at_step(1, 100, 10, base) == pytest.approx(base * 0.1)
    assert lr_at_step(10, 100, 10, base) == pytest.approx(base)
    assert lr_at_step(55, 100, 10, base) == pytest.approx(base * 0.5)
    assert lr_at_step(100, 100, 10, base) == 0.0
    # no warmup: starts just below base, still hits zero at the end
    assert lr_at_step(1, 10, 0, base) == pytest.approx(base * 0.9)
    assert lr_at_step(10, 10, 0, base) == 0.0


def test_lr_schedule_is_continuous_at_warmup_end():
    base = 1e-3
    at_warmup = lr_at_step(10, 100, 10, base)
    after = lr_at_step(11, 100, 10, base)
    assert at_warmup == pytest.approx(base)
    assert 0 < base - after < base * 0.02


# --- training loop ---

def separable_corpus(n_per_class=40):
    # two disjoint alphabets, trivially separable
    train, val = [], []
    for i in range(n_per_class):
        a = NameRecord(f"Aba{'ba' * (i % 3)} Dab{i:02d}", "alfa")
        b = NameRecord(f"Efe{'fe' * (i % 3)} Gef{i:02d}", "bravo")
        (train if i % 4 else val).extend([a, b])
    return train, val


def test_train_learns_separable_data():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus()
    model, log = train(train_set, val_set, taxonomy,
                       TrainConfig(learning_rate=0.01, batch_size=16,
                                   max_epochs=5, seed=0),
                       ModelConfig(embedding_dim=8, hidden_dim=16))
    assert log.epochs[-1].val_accuracy > 0.95
    assert model.predict_labels(["Ababa Dab99"]) == ["alfa"]


def test_train_runs_with_one_blas_thread_and_restores_the_count():
    calls = classifier._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS its wheels bundle")
    get, set_ = calls
    before = get()
    seen = []

    def scorer(model):
        seen.append(get())
        return 0.5, 0.5

    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(n_per_class=8)
    set_(2)
    try:
        train(train_set, val_set, taxonomy,
              TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=2),
              ModelConfig(4, 6), val_scorer=scorer)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1]


def test_train_logs_are_deterministic():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(20)
    config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=3, seed=9)
    small = ModelConfig(embedding_dim=6, hidden_dim=8)
    _, log_a = train(train_set, val_set, taxonomy, config, small)
    _, log_b = train(train_set, val_set, taxonomy, config, small)
    assert log_a.to_jsonl() == log_b.to_jsonl()
    _, log_c = train(train_set, val_set, taxonomy,
                     TrainConfig(learning_rate=0.01, batch_size=8,
                                 max_epochs=3, seed=10), small)
    assert log_a.to_jsonl() != log_c.to_jsonl()


def test_train_models_are_deterministic():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(20)
    config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=2, seed=4)
    small = ModelConfig(embedding_dim=6, hidden_dim=8)
    model_a, _ = train(train_set, val_set, taxonomy, config, small)
    model_b, _ = train(train_set, val_set, taxonomy, config, small)
    for key in model_a.params:
        assert np.array_equal(model_a.params[key], model_b.params[key])


def scripted_scorer(macros, snapshots):
    """Feed a fixed macro-F1 trace; snapshot live params per epoch."""
    trace = iter(macros)

    def scorer(model):
        macro = next(trace)
        snapshots.append({k: v.copy() for k, v in model.params.items()})
        return 0.0, macro

    return scorer


def test_early_stopping_trace_stops_at_seven_restores_two():
    """Macro trace 0.2 then six 0.3s, patience 5: epochs 3..7 never improve
    on epoch 2, so training stops after epoch 7 and restores epoch 2."""
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    snapshots = []
    model, log = train(
        train_set, val_set, taxonomy,
        TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=10,
                    patience=5, seed=0),
        ModelConfig(embedding_dim=4, hidden_dim=6),
        val_scorer=scripted_scorer([0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                                   snapshots))
    assert len(log.epochs) == 7
    assert [e.epoch for e in log.epochs] == [1, 2, 3, 4, 5, 6, 7]
    for key, value in model.params.items():
        assert np.array_equal(value, snapshots[1][key])  # epoch 2 checkpoint
    assert not np.array_equal(model.params["embedding"],
                              snapshots[6]["embedding"])


def test_early_stopping_requires_strict_improvement():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    snapshots = []
    model, log = train(
        train_set, val_set, taxonomy,
        TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=10,
                    patience=3, seed=0),
        ModelConfig(embedding_dim=4, hidden_dim=6),
        val_scorer=scripted_scorer([0.5] * 10, snapshots))
    assert len(log.epochs) == 4  # epoch 1 + three non-improving epochs
    for key, value in model.params.items():
        assert np.array_equal(value, snapshots[0][key])


def test_train_runs_to_max_epochs_when_improving():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    model, log = train(
        train_set, val_set, taxonomy,
        TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=4,
                    patience=2, seed=0),
        ModelConfig(embedding_dim=4, hidden_dim=6),
        val_scorer=scripted_scorer([0.1, 0.2, 0.3, 0.4], []))
    assert len(log.epochs) == 4


def test_train_epoch_lr_is_last_step_lr():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)  # 60 train records
    config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=2,
                         seed=0, warmup_fraction=0.0)
    _, log = train(train_set, val_set, taxonomy, config,
                   ModelConfig(embedding_dim=4, hidden_dim=6))
    steps_per_epoch = math.ceil(60 / 8)
    total = steps_per_epoch * 2
    assert log.epochs[0].lr == pytest.approx(
        lr_at_step(steps_per_epoch, total, 0, 0.01))
    assert log.epochs[1].lr == 0.0


def test_train_validates_inputs():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(4)
    config = TrainConfig(learning_rate=0.01)
    with pytest.raises(ValueError):
        train([], val_set, taxonomy, config)
    with pytest.raises(UnknownLabelError):
        train(train_set + [NameRecord("X Y", "zulu")], val_set, taxonomy,
              config)


@pytest.mark.parametrize("bad_train", [True, False],
                         ids=["both-sets", "validation-only"])
def test_train_names_the_first_unknown_label(monkeypatch, bad_train):
    """The first unknown training label is named, else the first unknown
    validation label, before any name is encoded."""
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(4)
    if bad_train:
        train_set = train_set + [NameRecord("X Y", "zulu")]
    val_set = val_set + [NameRecord("Y Z", "yankee")]

    def encode_batch(self, names):
        raise AssertionError("encoded before the labels were checked")

    monkeypatch.setattr(classifier.Tokenizer, "encode_batch", encode_batch)
    with pytest.raises(UnknownLabelError) as info:
        train(train_set, val_set, taxonomy, TrainConfig(learning_rate=0.01))
    label = "zulu" if bad_train else "yankee"
    assert str(info.value) == f"label {label!r} is not in taxonomy 't'"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_on_divergence():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    with pytest.raises(NonFiniteLossError):
        train(train_set, val_set, taxonomy,
              TrainConfig(learning_rate=1e30, batch_size=8, max_epochs=10,
                          seed=0),
              ModelConfig(embedding_dim=4, hidden_dim=6))


# --- logs and checkpoints ---

def test_train_log_round_trip():
    # The JSONL the train command writes parses back to the same epochs.
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(6)
    _, log = train(train_set, val_set, taxonomy,
                   TrainConfig(learning_rate=0.01, batch_size=8,
                               max_epochs=2, seed=0),
                   ModelConfig(embedding_dim=4, hidden_dim=6))
    lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
    assert TrainLog([EpochStats(**line) for line in lines]) == log
    assert set(lines[0]) == {"epoch", "train_loss", "val_accuracy",
                             "val_macro_f1", "lr"}


def trained_model():
    taxonomy = register_taxonomy("t", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    model, _ = train(train_set, val_set, taxonomy,
                     TrainConfig(learning_rate=0.01, batch_size=8,
                                 max_epochs=2, seed=0),
                     ModelConfig(embedding_dim=6, hidden_dim=8))
    return model


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = trained_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.tokenizer == model.tokenizer
    assert loaded.taxonomy.labels == model.taxonomy.labels
    for key in model.params:
        assert loaded.params[key].dtype == model.params[key].dtype
        assert np.array_equal(loaded.params[key], model.params[key])
    names = ["Ababa Dab01", "Efefe Gef02", ""]
    assert np.array_equal(loaded.predict_batch(names),
                          model.predict_batch(names))


def test_checkpoint_save_is_deterministic(tmp_path):
    model = trained_model()
    save_model(model, tmp_path / "a.bin")
    save_model(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    model = trained_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(CheckpointError):
        load_model(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_model(truncated)

    trailing = tmp_path / "long.bin"
    trailing.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CheckpointError):
        load_model(trailing)

    garbled = tmp_path / "garbled.bin"
    garbled.write_bytes(blob[:12] + b"\xff" * 20 + blob[32:])
    with pytest.raises(CheckpointError):
        load_model(garbled)

    no_length = tmp_path / "no_length.bin"
    no_length.write_bytes(blob[:10])  # right magic, under 12 bytes
    with pytest.raises(CheckpointError):
        load_model(no_length)

    header_len = int.from_bytes(blob[8:12], "little")
    data = blob[12 + header_len:]

    def with_header(edit):
        header = json.loads(blob[12:12 + header_len])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        bad = tmp_path / "header.bin"
        bad.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + data)
        return bad

    for key in ("params", "chars", "taxonomy", "max_len", "dtype"):
        with pytest.raises(CheckpointError, match=key):
            load_model(with_header(lambda h: h.pop(key)))

    # Shapes that disagree with the header or with each other; the byte
    # count still matches, so only the shape check can catch them.
    e, h = model.params["conv_w"].shape[1:]
    for edit in (lambda hd: hd["chars"].pop(),  # embedding rows != vocab
                 lambda hd: hd["taxonomy"]["labels"].append("charlie"),
                 lambda hd: hd["params"][1].update(shape=[3, h, e])):
        with pytest.raises(CheckpointError, match="shape"):
            load_model(with_header(edit))


# --- prediction API ---

def test_predict_matches_predict_batch_bitwise():
    model = trained_model()
    names = ["Ababa Dab01", "Efe Gef05"]
    batch = model.predict_batch(names)
    for i, name in enumerate(names):
        assert np.array_equal(model.predict_batch([name])[0], batch[i])


def test_predict_batch_empty_input():
    model = trained_model()
    probs = model.predict_batch([])
    assert probs.shape == (0, 2)


def test_predict_labels_tie_breaks_to_lowest_index():
    taxonomy = register_taxonomy("t", ["first", "second", "third"])
    tokenizer = Tokenizer(("a", "b"), max_len=4)
    params = init_params(tokenizer.vocab_size, 3, ModelConfig(4, 5), seed=0)
    for key in ("head_w", "head_b"):
        params[key] = np.zeros_like(params[key])  # force a three-way tie
    model = ClassifierModel(tokenizer, taxonomy, params)
    assert model.predict_labels(["ab"]) == ["first"]


def test_predict_labels_chunking_consistent(monkeypatch):
    model = trained_model()
    names = [f"Aba Dab{i:02d}" for i in range(10)]
    labels = {}
    for rows in (3, 100):
        monkeypatch.setattr(classifier, "PREDICT_CHUNK_ROWS", rows)
        labels[rows] = model.predict_labels(names)
    assert labels[3] == labels[100]


@pytest.mark.parametrize("n", [0, classifier.PREDICT_CHUNK_ROWS - 1,
                               classifier.PREDICT_CHUNK_ROWS,
                               classifier.PREDICT_CHUNK_ROWS + 1,
                               3 * classifier.PREDICT_CHUNK_ROWS])
def test_confusion_counts_each_record_once(n):
    """confusion scores the records a chunk at a time and counts each
    (gold, predicted) pair once, in the cell a loop over the pairs finds."""
    taxonomy = register_taxonomy("t", ["alfa", "bravo", "charlie"])
    tokenizer = Tokenizer(("a",), max_len=4)
    model = ClassifierModel(tokenizer, taxonomy, init_params(
        tokenizer.vocab_size, 3, ModelConfig(4, 5), seed=0))
    labels = taxonomy.labels
    records = [NameRecord(f"n{i}", labels[i % 3]) for i in range(n)]
    calls = []

    def scripted(names):  # the label of name "n<i>" is labels[i // 2 % 3]
        calls.append(len(names))
        return [labels[int(name[1:]) // 2 % 3] for name in names]

    model.predict_labels = scripted
    counts = model.confusion(iter(records))
    expected = np.zeros((3, 3), dtype=np.int64)
    for i in range(n):
        expected[i % 3, i // 2 % 3] += 1
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)
    assert sum(calls) == n
    assert all(0 < c <= classifier.PREDICT_CHUNK_ROWS for c in calls)


def test_confusion_rejects_an_unknown_gold_label():
    model = trained_model()
    with pytest.raises(UnknownLabelError, match="atlantis"):
        model.confusion([NameRecord("Aba Dab", "atlantis")])
