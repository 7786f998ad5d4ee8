"""Character-level name-to-nationality classifier.

Architecture: character embedding (64) -> width-3 convolution (128) with
ReLU -> masked mean pooling over non-pad positions -> linear head over the
taxonomy, trained with AdamW under linear warmup then linear decay, early
stopping on validation macro-F1, and best-epoch checkpointing.

Encoding runs no Python code per character: each chunk of ENCODE_CHUNK_ROWS
normalized names is joined, translated through a code page and read back
as UTF-32 into its rows of the output (see Tokenizer.encode_batch), so its
memory besides the output does not grow with the batch. AdamW keeps the
parameters, their moments and its work arrays as views of one flat buffer
per dtype and updates it in place, one whole-buffer operation at a time in
the order Python evaluates its update expression, so each step rounds
exactly as that expression does.

One forward pass serves training and scoring. Each non-pad token's
(prev, cur, nxt) ids index three tap tables, rows of embedding @ tap
weight, so the convolution at a token is three gathered rows plus the
bias, added in tap order; ReLU follows, then a per-row sum over that row's
own tokens in position order, divided by its token count (_token_taps,
tap_tables, _conv_pool). Padding adds no work, and rows with no tokens
pool to zeros.

Scoring keeps predict_batch([name]) bit-identical to any batched
evaluation containing the same name. Its tap tables span the whole
vocabulary and are computed once per model. A BLAS product's low-order
bits depend on its shape, so scoring runs exactly one BLAS product per
block of SCORE_BLOCK_ROWS rows, the head, on a block zero-padded to that
constant shape. Memory is bounded by the block, not the batch.

Training works in the batch's own vocabulary: its tap tables span the K
distinct ids of its tokens, plus PAD, and tokens index them by local id.
The backward pass sums the hidden gradient per id and tap with one product
of a (3K, tokens) 0/1 indicator, and forms both weight gradients from
those K-row sums. Its cost grows with tokens times K, so it beats an
im2col step while K is below about 3 * embedding_dim (see loss_and_grads).
A training step is not bit-identical across batch shapes, and need not be:
only scoring carries that contract. A threaded BLAS product sums in an
order that depends on its thread count, so train runs with one OpenBLAS
thread and its bytes do not depend on the environment's thread count.
"""
from __future__ import annotations

import codecs
import contextlib
import ctypes
import functools
import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    NameRecord, Taxonomy, atomic_open, json_type, normalize_name,
    register_taxonomy, require_json,
)
from .evaluation import evaluate

PAD = 0
UNK = 1
DEFAULT_MAX_LEN = 40
# The largest max_len a Tokenizer accepts. Encoding and scoring allocate per
# name in proportion to max_len, so a checkpoint header or config must not
# set it freely; names are far shorter than this.
MAX_LEN_LIMIT = 1024
_UNK_CHAR = chr(UNK)
# The codec's own function: str.encode looks the codec up on every call.
_encode_utf32le = codecs.getencoder("utf-32-le")
# int32 in the byte order of those UTF-32 code units.
_TOKEN_DTYPE = np.dtype("<i4")

# Names per encoding chunk. The chunk's names, their joined text, its UTF-32
# bytes and the chunk's position mask are the only allocations besides the
# output, so this bounds them (a few hundred KB at max_len 40); larger chunks
# were no faster. train also fills its ids a chunk at a time.
ENCODE_CHUNK_ROWS = 1024

CHECKPOINT_MAGIC = b"NCCLF001"

PARAM_ORDER = ("embedding", "conv_w", "conv_b", "head_w", "head_b")

# Rows per scoring block. The head product always has this many rows, so its
# bits do not depend on the batch. With one BLAS thread, 64 rows scored one
# name about 3x faster than 256 and batch 10000 no slower.
SCORE_BLOCK_ROWS = 64

# Names per predict_labels chunk and records per confusion chunk: bounds the
# probability rows (chunk by classes) and the records held, whatever their
# number. Scores are bit-identical across batch shapes, so results ignore it.
PREDICT_CHUNK_ROWS = 1024


class TrainingError(ValueError):
    pass


class NonFiniteLossError(TrainingError):
    def __init__(self, epoch: int, step: int, value: float):
        self.epoch = epoch
        self.step = step
        super().__init__(
            f"non-finite training loss ({value!r}) at epoch {epoch}, step {step}")


class CheckpointError(ValueError):
    pass


class _CodePage(dict):
    """str.translate table from a character's ordinal to its token id as a
    character; a character outside the vocabulary becomes UNK."""

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        return _UNK_CHAR


@dataclass(frozen=True)
class Tokenizer:
    """Character vocabulary with reserved PAD=0 and UNK=1 indices.

    encode_batch() yields exactly max_len indices per name (truncate or
    pad). Only single characters are ever matched: an entry of `chars` that
    is longer than one character keeps its index but never occurs in an
    encoding.
    """

    chars: tuple[str, ...]
    max_len: int = DEFAULT_MAX_LEN
    _page: _CodePage = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.max_len, int) or isinstance(self.max_len, bool):
            raise ValueError(f"max_len {self.max_len!r} is not an integer")
        if not 0 < self.max_len <= MAX_LEN_LIMIT:
            raise ValueError(f"max_len {self.max_len} is not in 1..{MAX_LEN_LIMIT}")
        if not all(isinstance(c, str) for c in self.chars):
            raise ValueError("tokenizer characters must be strings")
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("tokenizer characters must be unique")
        page = _CodePage({ord(c): chr(i + 2)
                          for i, c in enumerate(self.chars) if len(c) == 1})
        object.__setattr__(self, "_page", page)

    @property
    def vocab_size(self) -> int:
        return len(self.chars) + 2

    def encode_batch(self, names: Sequence[str]) -> np.ndarray:
        """Token ids, shape (len(names), max_len), int32.

        Each name is normalized and truncated. A chunk of names is then
        joined, translated to one character per token id and encoded as
        UTF-32 once: every token id is one code unit, and surrogatepass lets
        the ids that are surrogate code points through. The codes fill each
        row's leading positions, up to its name's length, and PAD the rest,
        so a U+0000 in a name is UNK.
        """
        width = self.max_len
        page = self._page
        positions = np.arange(width)
        out = np.zeros((len(names), width), dtype=_TOKEN_DTYPE)
        for start in range(0, len(names), ENCODE_CHUNK_ROWS):
            chunk = [normalize_name(name)[:width]
                     for name in names[start:start + ENCODE_CHUNK_ROWS]]
            lengths = np.fromiter(map(len, chunk), dtype=np.intp,
                                  count=len(chunk))
            codes = _encode_utf32le("".join(chunk).translate(page),
                                    "surrogatepass")[0]
            out[start:start + len(chunk)][positions < lengths[:, None]] = (
                np.frombuffer(codes, dtype=_TOKEN_DTYPE))
        return out


def fit_tokenizer(corpus: Sequence[NameRecord],
                  max_len: int = DEFAULT_MAX_LEN) -> Tokenizer:
    """Character vocabulary of the corpus, ordered by codepoint."""
    if not corpus:
        raise ValueError("cannot fit a tokenizer on an empty corpus")
    chars = sorted(set("".join([record.full_name for record in corpus])))
    return Tokenizer(tuple(chars), max_len)


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 64
    hidden_dim: int = 128

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("model dimensions must be positive")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int = 64
    max_epochs: int = 10
    warmup_fraction: float = 0.10
    patience: int = 5
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("batch_size, max_epochs, patience must be positive")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


def init_params(vocab_size: int, n_classes: int,
                model_config: ModelConfig = ModelConfig(),
                seed: int = 0,
                dtype: np.dtype = np.float32) -> dict[str, np.ndarray]:
    e, h = model_config.embedding_dim, model_config.hidden_dim
    rng = np.random.default_rng([seed, 0])
    params = {
        "embedding": rng.normal(0.0, 0.1, (vocab_size, e)),
        "conv_w": rng.normal(0.0, math.sqrt(2.0 / (3 * e)), (3, e, h)),
        "conv_b": np.zeros(h),
        "head_w": rng.normal(0.0, math.sqrt(1.0 / h), (h, n_classes)),
        "head_b": np.zeros(n_classes),
    }
    return {k: v.astype(dtype) for k, v in params.items()}


def tap_tables(embedding: np.ndarray, conv_w: np.ndarray) -> np.ndarray:
    """Per-character convolution terms, shape (3, rows, H): row i of tap t
    is embedding[i] @ conv_w[t]."""
    return embedding @ conv_w


def _token_taps(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row of each non-pad token of `x`, sorted, and its (prev, cur,
    nxt) ids, shape (3, tokens), with PAD past either end of the row."""
    width = x.shape[1] + 2
    padded = np.full((x.shape[0], width), PAD, dtype=x.dtype)
    padded[:, 1:-1] = x
    at = np.flatnonzero(padded != PAD)
    return at // width, padded.ravel()[at + np.arange(-1, 2)[:, None]]


def _conv_pool(taps: np.ndarray, tap_ids: np.ndarray, rows: np.ndarray,
               conv_b: np.ndarray, pooled: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """ReLU(conv) at each token, and each row's mean of it into `pooled`.

    Token i's tap t is row tap_ids[t, i] of taps[t]; `rows` is sorted.
    Rows of `pooled` with no tokens are zeroed. Returns the activations,
    shape (tokens, H), and the token count of each row of `pooled`.
    """
    hidden = np.take(taps[0], tap_ids[0], axis=0)
    hidden += np.take(taps[1], tap_ids[1], axis=0)
    hidden += np.take(taps[2], tap_ids[2], axis=0)
    hidden += conv_b
    np.maximum(hidden, 0, out=hidden)
    # `rows` is sorted, so each row's tokens are one run, in position order.
    counts = np.bincount(rows, minlength=len(pooled))
    filled = np.flatnonzero(counts)
    pooled.fill(0)
    if filled.size:
        starts = (np.cumsum(counts) - counts)[filled]
        sums = np.add.reduceat(hidden, starts, axis=0)
        pooled[filled] = sums / counts[filled, None].astype(pooled.dtype)
    return hidden, counts


def score_batch(params: dict[str, np.ndarray], x: np.ndarray, *,
                taps: np.ndarray) -> np.ndarray:
    """Probability rows for encoded names; bit-identical across batch shapes.

    Rows are scored in blocks of SCORE_BLOCK_ROWS (see module docstring).
    `taps` are tap_tables(params["embedding"], params["conv_w"]). An all-pad
    row (empty name) pools to zeros and scores as softmax of the head bias;
    no rows give a (0, classes) array.
    """
    dtype = params["embedding"].dtype
    pooled = np.empty((SCORE_BLOCK_ROWS, params["conv_b"].shape[0]), dtype=dtype)
    probs = np.empty((x.shape[0], params["head_b"].shape[0]), dtype=dtype)
    for start in range(0, x.shape[0], SCORE_BLOCK_ROWS):
        block = x[start:start + SCORE_BLOCK_ROWS]
        rows, tap_ids = _token_taps(block)
        _conv_pool(taps, tap_ids, rows, params["conv_b"], pooled)
        logits = (pooled @ params["head_w"])[:len(block)] + params["head_b"]
        peak = logits.max(axis=1, keepdims=True)
        exps = np.exp(logits - peak)
        probs[start:start + len(block)] = exps / exps.sum(axis=1, keepdims=True)
    return probs


def loss_and_grads(params: dict[str, np.ndarray], x: np.ndarray,
                   y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its analytic gradients.

    Works over the batch's own vocabulary (see module docstring): the K
    distinct ids of its non-pad tokens, plus PAD. With T tokens, embedding
    width E and hidden width H, the tap tables cost K * E * 3H, the forward
    gathers 3 * T * H, and the backward indicator product, (3K, T) by
    (T, H), 3 * K * T * H, against 3 * T * 3E * H for the three im2col
    products this replaced, so the step is the cheaper one while K is below
    about 3E. A batch of names holds a few dozen distinct characters; ~700
    tokens drawn at random from 5000 ids (K ~ 670) take about three times
    as long as im2col. Padding adds no work. The vocabulary size enters
    only through an id lookup array and the embedding gradient, whose rows
    outside the batch's vocabulary are zero. Ids of any integer dtype give
    the same bits. An all-pad row pools to zeros.
    """
    embedding = params["embedding"]
    conv_w = params["conv_w"]
    dtype = embedding.dtype
    n = x.shape[0]
    h = params["conv_b"].shape[0]

    # The batch's vocabulary, in id order: its tokens' ids and PAD, which
    # is a neighbour of every name's first token. `tap_ids` are the rows of
    # the tokens' taps in the per-batch tap tables.
    rows, ids = _token_taps(x)
    present = np.bincount(ids[1], minlength=embedding.shape[0]) > 0
    present[PAD] = True
    vocab = np.flatnonzero(present)
    tap_ids = (np.cumsum(present) - 1)[ids]
    emb = embedding[vocab]
    pooled = np.empty((n, h), dtype=dtype)
    hidden, counts = _conv_pool(tap_tables(emb, conv_w), tap_ids, rows,
                                params["conv_b"], pooled)
    logits = pooled @ params["head_w"] + params["head_b"]

    peak = logits.max(axis=1, keepdims=True)
    shifted = logits - peak
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    batch_rows = np.arange(n)
    loss = float(-log_probs[batch_rows, y].mean())

    d_logits = np.exp(log_probs)
    d_logits[batch_rows, y] -= 1
    d_logits /= n

    grads: dict[str, np.ndarray] = {
        "head_w": pooled.T @ d_logits,
        "head_b": d_logits.sum(axis=0),
    }
    d_pooled = d_logits @ params["head_w"].T
    d_pooled /= np.maximum(counts, 1).astype(dtype)[:, None]
    # ReLU passes gradient where its output is positive.
    d_hidden = np.take(d_pooled, rows, axis=0)
    np.multiply(d_hidden, hidden > 0, out=d_hidden)
    del hidden  # frees its (T, H) floats before the indicator is built
    grads["conv_b"] = d_hidden.sum(axis=0)

    # g[t] = onehot[t] @ d_hidden, where onehot[t, k, i] is 1 when token i's
    # tap-t id is local id k: it sums d_hidden per id. The three taps' rows
    # are one (3K, T) indicator, set through its flat index and multiplied
    # once.
    k, tokens = len(vocab), len(rows)
    onehot = np.zeros(3 * k * tokens, dtype=dtype)
    onehot[(tap_ids + np.arange(0, 3 * k, k)[:, None]) * tokens
           + np.arange(tokens)] = 1
    g = (onehot.reshape(3 * k, tokens) @ d_hidden).reshape(3, k, h)
    grads["conv_w"] = emb.T @ g
    embedding_grad = np.zeros_like(embedding)
    embedding_grad[vocab] = (g @ conv_w.transpose(0, 2, 1)).sum(axis=0)
    grads["embedding"] = embedding_grad
    return loss, grads


# AdamW's moment decay rates and denominator guard, Adam's published defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay; state arrays follow the param dtype.

    The parameters of each dtype, their two moments, their grads and two
    work arrays are rows of one flat buffer, allocated once, so a step is a
    dozen whole-buffer operations and allocates nothing. Construction copies
    each parameter into its buffer and rebinds `params[key]` to that view,
    of the same shape; step() updates those views in place. `_m[key]` and
    `_v[key]` are the moments of one parameter. Grads must share their
    parameter's dtype.
    """

    def __init__(self, params: dict[str, np.ndarray], weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.step_count = 0
        self._params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        # Per dtype: its keys, then the flat param, grad, m, v, update and
        # denom rows.
        self._groups: list[tuple[list[str], np.ndarray]] = []
        by_dtype: dict[np.dtype, list[str]] = {}
        for key, value in params.items():
            by_dtype.setdefault(value.dtype, []).append(key)
        for dtype, keys in by_dtype.items():
            flat = np.zeros((6, sum(params[key].size for key in keys)),
                            dtype=dtype)
            offset = 0
            for key in keys:
                shape = params[key].shape
                end = offset + params[key].size
                view = flat[0, offset:end].reshape(shape)
                view[...] = params[key]
                params[key] = self._params[key] = view
                self._m[key] = flat[2, offset:end].reshape(shape)
                self._v[key] = flat[3, offset:end].reshape(shape)
                offset = end
            self._groups.append((keys, flat))

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        """One update of the params this optimizer was built with, evaluated
        as these expressions would be:

            m = BETA1 * m + (1 - BETA1) * grad
            v = BETA2 * v + (1 - BETA2) * grad * grad
            param -= lr * ((m / bias1) / (sqrt(v / bias2) + EPS)
                           + weight_decay * param)
        """
        if params.keys() != self._params.keys() or any(
                params[key] is not view for key, view in self._params.items()):
            raise ValueError("AdamW.step takes the params it was built with")
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for keys, flat in self._groups:
            param, grad, m, v, update, denom = flat
            np.concatenate([grads[key].ravel() for key in keys], out=grad,
                           casting="no")
            m *= BETA1
            m += np.multiply(1.0 - BETA1, grad, out=update)
            v *= BETA2
            np.multiply(1.0 - BETA2, grad, out=update)
            v += np.multiply(update, grad, out=update)
            np.divide(m, bias1, out=update)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            update /= denom
            if self.weight_decay:
                update += np.multiply(self.weight_decay, param, out=denom)
            update *= lr
            param -= update


def lr_at_step(step: int, total_steps: int, warmup_steps: int,
               base_lr: float) -> float:
    """Linear warmup to base_lr, then linear decay to zero. `step` is 1-based."""
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    remaining = max(1, total_steps - warmup_steps)
    return base_lr * max(0, total_steps - step) / remaining


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float
    lr: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_dict()) + "\n" for e in self.epochs)


@dataclass
class ClassifierModel:
    """A trained classifier. Its tap tables are computed from `params` at
    construction, so build a new model after changing the parameters."""

    tokenizer: Tokenizer
    taxonomy: Taxonomy
    params: dict[str, np.ndarray]
    _taps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._taps = tap_tables(self.params["embedding"], self.params["conv_w"])

    def predict_batch(self, names: Sequence[str]) -> np.ndarray:
        return score_batch(self.params, self.tokenizer.encode_batch(names),
                           taps=self._taps)

    def predict_labels(self, names: Sequence[str]) -> list[str]:
        labels = []
        for start in range(0, len(names), PREDICT_CHUNK_ROWS):
            probs = self.predict_batch(names[start:start + PREDICT_CHUNK_ROWS])
            # np.argmax returns the first maximum: lowest index wins ties
            for row in probs.argmax(axis=1):
                labels.append(self.taxonomy.labels[int(row)])
        return labels

    def confusion(self, records: Iterable[NameRecord]) -> np.ndarray:
        """(K, K) int64 counts of the records, rows gold and columns predicted,
        read and scored PREDICT_CHUNK_ROWS records at a time. A gold label
        outside the taxonomy raises UnknownLabelError."""
        k = len(self.taxonomy)
        counts = np.zeros(k * k, dtype=np.int64)
        records = iter(records)
        while chunk := list(itertools.islice(records, PREDICT_CHUNK_ROWS)):
            gold = np.array([self.taxonomy.index_of(r.label) for r in chunk])
            predicted = self.predict_labels([r.full_name for r in chunk])
            cells = gold * k + [self.taxonomy.index_of(p) for p in predicted]
            counts += np.bincount(cells, minlength=k * k)
        return counts.reshape(k, k)


ValScorer = Callable[[ClassifierModel], tuple[float, float]]


def _default_val_scorer(val_set: Sequence[NameRecord]) -> ValScorer:
    def scorer(model: ClassifierModel) -> tuple[float, float]:
        report = evaluate(model.confusion(val_set), model.taxonomy)
        return report.accuracy, report.macro_f1

    return scorer


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set thread-count calls of the OpenBLAS that numpy's Linux
    wheels bundle, or None for a numpy built against another BLAS."""
    for path in sorted(Path(np.__file__).parent.parent.glob(
            "numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in itertools.product(
                ("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the count."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@_one_blas_thread()
def train(
    train_set: Sequence[NameRecord],
    val_set: Sequence[NameRecord],
    taxonomy: Taxonomy,
    config: TrainConfig,
    model_config: ModelConfig = ModelConfig(),
    tokenizer: Tokenizer | None = None,
    val_scorer: ValScorer | None = None,
) -> tuple[ClassifierModel, TrainLog]:
    """Train a classifier, returning the best-validation-epoch model and log.

    Early stopping: after each epoch the validation macro-F1 is compared to
    the best so far (strict improvement); `patience` consecutive epochs
    without improvement stop training, and the checkpoint from the best epoch
    is returned. `val_scorer` overrides validation scoring; it receives the
    live model and returns (accuracy, macro_f1). It runs with one OpenBLAS
    thread, so its results do not depend on the thread count the
    environment sets; the previous count is restored when it returns.
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    y_train = np.array([taxonomy.index_of(r.label) for r in train_set],
                       dtype=np.int64)  # raises UnknownLabelError
    for record in val_set:  # checked too before any name is encoded
        taxonomy.index_of(record.label)

    if tokenizer is None:
        tokenizer = fit_tokenizer(train_set)
    # Ids in the narrowest dtype that holds the vocabulary, filled a chunk
    # at a time, so no int32 copy of the whole split exists.
    n = len(train_set)
    x_train = np.empty((n, tokenizer.max_len),
                       dtype=np.min_scalar_type(tokenizer.vocab_size - 1))
    names = (r.full_name for r in train_set)  # it may be sized, not sliceable
    for start in range(0, n, ENCODE_CHUNK_ROWS):
        x_train[start:start + ENCODE_CHUNK_ROWS] = tokenizer.encode_batch(
            list(itertools.islice(names, ENCODE_CHUNK_ROWS)))
    params = init_params(tokenizer.vocab_size, len(taxonomy), model_config,
                         seed=config.seed)
    optimizer = AdamW(params, weight_decay=config.weight_decay)
    if val_scorer is None:
        val_scorer = _default_val_scorer(val_set)

    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.max_epochs
    warmup_steps = int(config.warmup_fraction * total_steps)
    shuffle_rng = np.random.default_rng([config.seed, 1])

    log = TrainLog()
    best_macro = -math.inf
    best_params: dict[str, np.ndarray] | None = None
    epochs_without_improvement = 0
    global_step = 0
    lr = config.learning_rate

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for step, start in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[start:start + config.batch_size]
            global_step += 1
            lr = lr_at_step(global_step, total_steps, warmup_steps,
                            config.learning_rate)
            loss, grads = loss_and_grads(params, x_train[batch], y_train[batch])
            if not math.isfinite(loss):
                raise NonFiniteLossError(epoch, step, loss)
            optimizer.step(params, grads, lr)
            total_loss += loss * len(batch)

        model = ClassifierModel(tokenizer, taxonomy, params)
        val_accuracy, val_macro = val_scorer(model)
        log.epochs.append(EpochStats(epoch, total_loss / n,
                                     val_accuracy, val_macro, lr))
        if val_macro > best_macro:
            best_macro = val_macro
            best_params = {k: v.copy() for k, v in params.items()}
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    assert best_params is not None
    return ClassifierModel(tokenizer, taxonomy, best_params), log


# --- checkpoint format ----------------------------------------------------
# magic (8 bytes) | uint32 LE header length | JSON header | raw little-endian
# arrays, C order, in PARAM_ORDER.

def save_model(model: ClassifierModel, path: str | Path) -> None:
    dtype = np.dtype(model.params["embedding"].dtype)
    header = {
        "dtype": dtype.name,
        "max_len": model.tokenizer.max_len,
        "chars": list(model.tokenizer.chars),
        "taxonomy": {"name": model.taxonomy.name,
                     "labels": list(model.taxonomy.labels)},
        "params": [{"name": name, "shape": list(model.params[name].shape)}
                   for name in PARAM_ORDER],
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        little = dtype.newbyteorder("<")
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(model.params[name],
                                          dtype=little).tobytes())


def load_model(path: str | Path) -> ClassifierModel:
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {blob[:8]!r}, expected {CHECKPOINT_MAGIC!r}")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<I", blob[8:12])
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    try:
        dtype = np.dtype(header["dtype"])
        shapes = [(entry["name"], _shape(entry["shape"]))
                  for entry in header["params"]]
        tokenizer = Tokenizer(tuple(header["chars"]), header["max_len"])
        labels = header["taxonomy"]["labels"]
        taxonomy = register_taxonomy(header["taxonomy"]["name"], labels)
    except KeyError as exc:
        raise CheckpointError(f"{path}: header lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    if list(taxonomy.labels) != labels:
        raise CheckpointError(f"{path}: taxonomy labels are not a list in "
                              f"normal form (NFC, trimmed, lowercase)")
    # Commands name output files after the taxonomy (evaluate's manifest).
    name = taxonomy.name
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")):
        raise CheckpointError(f"{path}: taxonomy name {name!r} is not a "
                              f"single file name component")
    if dtype.kind != "f":
        raise CheckpointError(f"{path}: parameter dtype {dtype} is not floating")
    if [name for name, _ in shapes] != list(PARAM_ORDER):
        raise CheckpointError(f"{path}: parameters "
                              f"{[name for name, _ in shapes]} are not "
                              f"{list(PARAM_ORDER)}")
    # Scoring indexes the tap tables by token id and the head by label, so
    # the header's counts and the embedding and hidden widths fix every
    # shape, and the shapes fix the bytes that follow the header.
    declared = dict(shapes)
    e = (declared["embedding"] or (0,))[-1]
    h = (declared["conv_b"] or (0,))[-1]
    v, c = tokenizer.vocab_size, len(taxonomy)
    expected = {"embedding": (v, e), "conv_w": (3, e, h), "conv_b": (h,),
                "head_w": (h, c), "head_b": (c,)}
    for name in PARAM_ORDER:
        if declared[name] != expected[name]:
            raise CheckpointError(
                f"{path}: {name} has shape {declared[name]}; the header "
                f"({v} token ids, {c} labels) and the other parameters "
                f"imply {expected[name]}")
    offset = 12 + header_len
    size = sum(map(math.prod, expected.values())) * dtype.itemsize
    if len(blob) - offset != size:
        raise CheckpointError(f"{path}: {len(blob) - offset} bytes of "
                              f"parameter data, where the shapes take {size}")
    little = dtype.newbyteorder("<")
    params: dict[str, np.ndarray] = {}
    for name in PARAM_ORDER:
        count = math.prod(expected[name])
        raw = np.frombuffer(blob, dtype=little, count=count, offset=offset)
        params[name] = raw.astype(dtype).reshape(expected[name])
        offset += count * dtype.itemsize
    return ClassifierModel(tokenizer, taxonomy, params)


def _shape(dims) -> tuple[int, ...]:
    """A header shape: an array of non-negative JSON integers. int() would
    also take "9", 2.5 and true, and raise OverflowError on Infinity."""
    require_json("shape", dims, list)
    for d in dims:
        if json_type(d) != "an integer":
            raise TypeError(f"shape dimension must be an integer, "
                            f"not {json_type(d)}")
        if d < 0:
            raise ValueError(f"shape dimension {d} is negative")
    return tuple(dims)
