"""Dataset synthesis and IO, the two-branch trainer, and retrieval evaluation.

A dataset is a ``Dataset``: the ten read-only arrays its docstring lays
out, one record per caption and each image's sequence once, checked when
it is built. A dataset file is those ten arrays as a stream of ``.npy``
arrays, numpy's own format, in field order with no byte after the last;
an open file handle keeps the caller's path, whatever its suffix.
``load_dataset`` reads the ten arrays as they are and builds the
``Dataset``, so every check but its ``max_seq_len`` bound is made once.
Consumers read rows, not records: a training batch gathers its images'
and captions' ``(lengths, rows)`` by record index, and clustering and
retrieval hand the encoders zero-copy slices of the row arrays, one run
of at most ``EMBED_ROWS`` rows at a time.

Training runs both branches per batch (instance embeddings with in-batch
and memory-bank contrastive losses; concept embeddings with their own
contrastive loss and a pseudo-label classification loss), updates all
parameters with one Adam step over their concatenation, moves the
momentum mirror, and queues the momentum embeddings as ``[v | w]`` pairs.

Evaluation ranks with the beta-blend of instance-level and concept-level
cosine similarity. Images and captions are embedded in runs of at most
``EMBED_ROWS`` feature rows; each caption run is read by both caption
encoders and its concept query follows. Each run is
written in place into one of two score factors, ``[v | vc]`` per image
and ``[w | wc]`` per caption, and ``v``, ``w``, ``vc`` and ``wc`` are
their column views. The canonical score is one matmul of stacked
factors, ``[beta*v | (1-beta)*vc] @ [w | wc].T``, formed and ranked one
``RANK_BLOCK x RANK_BLOCK`` tile at a time, so no [n_images x
n_captions] matrix is ever held: besides the two factors and the
per-image blend, extra memory is O(RANK_BLOCK^2) for ranking, beside its
per-image and per-caption vectors, plus O(EMBED_ROWS x d) for
embedding, d the widest feature or embedding row. Ranks are counted,
not sorted: a cell with score s is ahead of a target t when s > t, or
when s == t at a lower index. A pre-pass reads the ground-truth cells
from the tiles that hold them and rejects any that is not finite, and
the main pass forms every tile once; both cut the tiles at the same
bounds, so every count and every target reads the same canonical cell
values.
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import knowledge as kn
from . import numerics as nm
from . import objective as obj
from .numerics import AdamState, Matrix, adam_step, backward, rng_from_seed
from .objective import PrototypeState, SimilarityMatrix
from .representation import EncoderPair, FeatureAggregator, MemoryBank, named_params

CHECKPOINT_VERSION = 5
# width of every instance and concept embedding, and of the concept graph's input rows
EMBED_DIM = 32
# rows and columns of the score tiles recalls_from_similarity ranks, one at a time
RANK_BLOCK = 256
# feature rows embedded at once (embed_for_retrieval, _instance_sums) or checked at once (Dataset)
EMBED_ROWS = 4096
# the loss parts batch_losses reports and train averages, in the order the total adds them
LOSS_PARTS = ("l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc")


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class Dataset:
    """A paired split as the ten arrays of its file, in file order (n records, one per caption; m images)::

        pair_ids         [n] str      unique, non-empty
        image_ids        [m] str      unique, non-empty, in order of first appearance
        caption_image    [n] int      each record's image, in [0, m)
        image_lengths    [m] int      rows of each image sequence, at least 1
        image_rows       [sum, d_img] <f8, the image sequences one after another
        caption_lengths  [n] int      rows of each caption sequence, at least 1
        caption_rows     [sum, d_txt] <f8, the caption sequences one after another
        vocabulary       [v] str      the tokens that token_codes index
        token_counts     [n] int      tokens of each caption
        token_codes      [sum] int    each token's vocabulary index, in [0, v)

    There is at least one record. Row arrays are finite, C-ordered and
    at least one column wide, with as many rows as their lengths sum to,
    and there are as many token codes as the counts sum to. Each image's
    rows are held once, for all its records. ``__post_init__`` checks all
    of that with array operations, naming the record, the image or the
    array, so no invalid dataset exists. It holds each field as a
    read-only view of the array given, or of its int64 copy for ints of
    another dtype; a str field may also be a sequence of str that a str
    array keeps unchanged. ``len()`` is the record count.
    """

    pair_ids: np.ndarray
    image_ids: np.ndarray
    caption_image: np.ndarray
    image_lengths: np.ndarray
    image_rows: np.ndarray
    caption_lengths: np.ndarray
    caption_rows: np.ndarray
    vocabulary: np.ndarray
    token_counts: np.ndarray
    token_codes: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("pair_ids", "image_ids", "vocabulary") and not isinstance(value, np.ndarray):
                arr = np.array(value, dtype=str)
                # a str array drops a trailing NUL and turns a non-string into a str
                if arr.tolist() != list(value):
                    raise ValueError("every id and token must be a str that does not end in NUL")
            else:
                arr = np.asarray(value)
                if arr.dtype.kind in "iu":
                    # the encoders index and offset rows with int64; a value it cannot hold is out of range
                    arr = arr.astype(np.int64, copy=False)
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
        pair_ids, image_ids = self.pair_ids, self.image_ids
        _check_column("pair_ids", pair_ids, "U")
        if not len(pair_ids):
            raise ValueError("dataset has no records")
        _check_column("image_ids", image_ids, "U")
        for name, kind, size in (("caption_image", "iu", len(pair_ids)),
                                 ("image_lengths", "iu", len(image_ids)),
                                 ("caption_lengths", "iu", len(pair_ids)), ("vocabulary", "U", None),
                                 ("token_counts", "iu", len(pair_ids)), ("token_codes", "iu", None)):
            _check_column(name, getattr(self, name), kind, size)
        _check_ids(pair_ids, "pair_ids", "record")
        _check_ids(image_ids, "image_ids", "image")

        def record(j) -> str:
            return f"record {str(pair_ids[j])!r}"

        _in_range(self.caption_image, 0, len(image_ids) - 1, "caption_image", record)
        # in order of first appearance, caption_image's running maximum steps 0, 1, ..., m - 1
        seen = np.maximum.accumulate(self.caption_image, dtype=np.int64)
        skip = np.flatnonzero(np.diff(seen, prepend=-1, append=len(image_ids)) > 1)
        if skip.size:
            j = int(skip[0])
            later = f" before {record(j)}, which names a later image" if j < len(pair_ids) else ""
            raise ValueError(f"image {str(image_ids[seen[j - 1] + 1 if j else 0])!r}: "
                             f"no record names it{later}")
        _check_rows("image", self.image_lengths, self.image_rows,
                    lambda i: f"image {str(image_ids[i])!r}")
        _check_rows("caption", self.caption_lengths, self.caption_rows, record)
        counts, codes = self.token_counts, self.token_codes
        ends = np.cumsum(counts)
        if ((counts < 0) | (counts > len(codes))).any() or ends[-1] != len(codes):
            raise ValueError(f"dataset array 'token_counts' must be non-negative and sum to the "
                             f"{len(codes)} entries of 'token_codes'")
        _in_range(codes, 0, len(self.vocabulary) - 1, "token code",
                  lambda k: record(np.searchsorted(ends, k, side="right")))

    def __len__(self) -> int:
        return len(self.pair_ids)


def _check_column(name: str, arr: np.ndarray, kind: str, size: int | None = None) -> None:
    """Raise unless dataset array ``name`` is 1-D, of a dtype kind in ``kind`` and ``size`` long if given."""
    if arr.dtype.kind not in kind or arr.ndim != 1 or size not in (None, len(arr)):
        raise ValueError(f"dataset array {name!r} must be 1-D of dtype kind {kind!r} and length "
                         f"{'any' if size is None else size}, got {arr.dtype} of shape {arr.shape}")


def _check_ids(ids: np.ndarray, name: str, label: str) -> None:
    """Raise unless ``ids``, dataset array ``name``, are unique and non-empty.

    A duplicate is named as a ``label``, an empty id by its index.
    """
    listed = ids.tolist()
    if len(set(listed)) < len(listed):
        dup = next(x for x, n in Counter(listed).items() if n > 1)
        raise ValueError(f"{label} {dup!r}: duplicate {name[:-1]}")
    empty = np.flatnonzero(ids == "")
    if empty.size:
        raise ValueError(f"dataset array {name!r}: entry {empty[0]} is empty")


def _in_range(values: np.ndarray, lo: int, hi: int, what: str, owner) -> None:
    """Raise for the first ``values[i]`` outside ``[lo, hi]``, naming ``owner(i)`` and ``what``."""
    bad = np.flatnonzero((values < lo) | (values > hi))
    if bad.size:
        raise ValueError(f"{owner(bad[0])}: {what} {values[bad[0]]} outside [{lo}, {hi}]")


def _check_rows(field: str, lengths: np.ndarray, rows: np.ndarray, owner) -> None:
    """Raise unless ``rows`` hold the finite, non-empty sequences of ``lengths``; ``owner(i)`` names one.

    ``rows`` must be a C-ordered <f8 array with as many rows as the
    lengths sum to and at least one column. Finiteness is checked one
    ``_runs`` run at a time, so temporaries stay O(EMBED_ROWS x d).
    """
    name = f"{field}_features"
    empty = np.flatnonzero(lengths < 1)
    if empty.size:
        raise ValueError(f"{owner(empty[0])}: {name} has no rows")
    total, shape = lengths.sum(), rows.shape
    # lengths of at least 1 and at most the row count sum to that count without wrapping
    if not (rows.dtype == "<f8" and rows.flags.c_contiguous and len(shape) == 2 and shape[1] >= 1
            and lengths.max(initial=0) <= shape[0] == total):
        raise ValueError(f"dataset array '{field}_rows' must be a C-ordered <f8 array of {total} rows, "
                         f"as '{field}_lengths' sum to, and d >= 1 columns, got {rows.dtype} of shape "
                         f"{shape}")
    for lo, _, (run_lengths, run) in _runs(lengths, rows):
        finite = np.isfinite(run)
        if not finite.all():
            i = lo + np.searchsorted(np.cumsum(run_lengths), finite.all(axis=1).argmin(), side="right")
            raise ValueError(f"{owner(i)}: {name} contains non-finite values")


def _runs(lengths: np.ndarray, rows: np.ndarray):
    """``(lo, hi, (lengths[lo:hi], their rows))`` for each run of consecutive sequences, lazily.

    ``rows`` holds the sequences of ``lengths`` one after another, and
    both parts of a run are views. A run holds at most ``EMBED_ROWS``
    rows: it ends before the sequence that would pass the budget, so a
    longer sequence is a run of its own.
    """
    ends, lo = np.cumsum(lengths), 0
    while lo < len(ends):
        r0 = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, r0 + EMBED_ROWS, side="right")), lo + 1)
        yield lo, hi, (lengths[lo:hi], rows[r0:int(ends[hi - 1])])
        lo = hi


@dataclass
class EvalResult:
    """Recall percentages both ways at K in {1, 5, 10}; ``rsum`` is their exact sum, rounded once."""

    r1_t: float
    r5_t: float
    r10_t: float
    r1_i: float
    r5_i: float
    r10_i: float
    rsum: float

    def as_row(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class TrainConfig:
    """The 14 knobs that runs and ablations turn, with desk-scale defaults.

    ``bank_capacity`` defaults to 512 at desk scale (4096 matches
    large-corpus training); 0 turns the memory loss off and runs no
    momentum forwards. The learning rate starts at ``lr`` and drops
    x0.1 from epoch ``max(epochs // 2, 1)`` on, as after 15 of 30 epochs.
    Fixed values live where they are read: ``EMBED_DIM``,
    ``objective.DIVERSITY_EPS`` and the defaults of ``FeatureAggregator``
    (positional and decoder widths), ``EncoderPair.momentum_update``,
    ``binarize``, ``concept_query`` and ``triplet_baseline_loss``.
    """

    mu: float = 0.1
    gamma: float = 0.3
    lambda_weight: float = 3.0
    beta: float = 0.9
    bank_capacity: int = 512
    k_clusters: int = 16
    concepts: int = 24
    batch_size: int = 32
    epochs: int = 20
    lr: float = 2e-4
    seed: int = 0
    diversity_estimator: str = "std"
    instance_loss: str = "dcl"
    use_concept_losses: bool = True

    def __post_init__(self) -> None:
        """Raise ``ValueError`` naming the first field not of its annotated type or out of range.

        So every config is valid from the moment it exists. A bool is no
        int, and an int is a float.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = _TYPES[f.type]
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ValueError(f"invalid config: {f.name} must be {f.type}, "
                                 f"got {type(value).__name__} {value!r}")
            # false for inf, NaN and an int beyond the float64 range alike
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ValueError(f"invalid config: {f.name} must be finite, got {value!r}")
        checks = [
            (self.mu > 0, "mu must be positive"),
            (self.gamma >= 0, "gamma must be non-negative"),
            (self.lambda_weight >= 0, "lambda_weight must be non-negative"),
            (0.0 <= self.beta <= 1.0, "beta must lie in [0, 1]"),
            (self.bank_capacity >= 0, "bank_capacity must be non-negative"),
            (self.k_clusters >= 1, "k_clusters must be positive"),
            (self.concepts >= 1, "concepts must be positive"),
            (self.batch_size >= 2, "batch_size must be at least 2"),
            (self.epochs >= 0, "epochs must be non-negative"),
            (self.lr > 0, "lr must be positive"),
            (self.seed >= 0, "seed must be non-negative"),
            (self.diversity_estimator in ("std", "entropy"),
             "diversity_estimator must be 'std' or 'entropy'"),
            (self.instance_loss in ("dcl", "dcl_i", "triplet"),
             "instance_loss must be 'dcl', 'dcl_i', or 'triplet'"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(f"invalid config: {message}")


# the value types each TrainConfig annotation accepts
_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

DISTRACTOR_TOKENS = ["a", "the", "with", "near", "some", "very", "two", "small"]


@dataclass
class SyntheticWorld:
    """Shared latent tables so different splits describe the same classes."""

    latent_classes: int
    attrs_per_class: int
    attr_latents: np.ndarray          # [classes, attrs_per_class, d_latent]
    distractor_latents: np.ndarray    # [len(DISTRACTOR_TOKENS), d_latent]
    proj_img: np.ndarray              # [d_latent, d_img]
    proj_txt: np.ndarray              # [d_latent, d_txt]

    def attr_token(self, class_id: int, slot: int) -> str:
        return f"cls{class_id}attr{slot}"


def build_world(latent_classes: int, seed: int, *, d_img: int = 48, d_txt: int = 48,
                d_latent: int = 16, attrs_per_class: int = 8,
                modality_alignment: float = 0.7) -> SyntheticWorld:
    """Latent tables plus the two fixed modality projections.

    The projections stand in for precomputed features from pretrained
    encoders, which live in partially aligned spaces; when both feature
    dims match, the text projection correlates with the image one at
    ``modality_alignment`` (0 = independent, 1 = identical).
    """
    if not 0.0 <= modality_alignment <= 1.0:
        raise ValueError("modality_alignment must lie in [0, 1]")
    rng = rng_from_seed(seed, 201)
    attr = rng.standard_normal((latent_classes * attrs_per_class, d_latent))
    attr = nm.unit_rows(attr)[0].reshape(latent_classes, attrs_per_class, d_latent)
    distract = nm.unit_rows(rng.standard_normal((len(DISTRACTOR_TOKENS), d_latent)))[0]
    proj_img = rng.standard_normal((d_latent, d_img)) / np.sqrt(d_latent)
    proj_txt = rng.standard_normal((d_latent, d_txt)) / np.sqrt(d_latent)
    if d_img == d_txt:
        a = modality_alignment
        proj_txt = a * proj_img + np.sqrt(1.0 - a * a) * proj_txt
    return SyntheticWorld(latent_classes, attrs_per_class, attr, distract, proj_img, proj_txt)


def generate_synthetic(n_images: int, captions_per_image: int = 1, latent_classes: int = 8,
                       noise: float = 0.1, seed: int = 0, *, split: str = "train",
                       world: SyntheticWorld | None = None, attrs_per_image: int = 3,
                       d_img: int = 48, d_txt: int = 48) -> Dataset:
    """Deterministic paired dataset over shared latent classes.

    Every image shows a per-image subset of its class's attribute latents
    (projected to image space, plus Gaussian noise); each caption names
    exactly those attributes plus a couple of distractor tokens, with
    features looked up from the fixed latent tables (text side is
    noise-free). Captions are therefore discriminative within a class
    through the attribute combination. A given ``world`` must match
    ``latent_classes``, ``d_img`` and ``d_txt``.
    """
    if n_images < 1 or captions_per_image < 1:
        raise ValueError("need at least one image and one caption per image")
    if latent_classes < 2:
        raise ValueError("need at least two latent classes")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    if world is None:
        world = build_world(latent_classes, seed, d_img=d_img, d_txt=d_txt)
    for name, given, held in (("latent_classes", latent_classes, world.latent_classes),
                              ("d_img", d_img, world.proj_img.shape[1]),
                              ("d_txt", d_txt, world.proj_txt.shape[1])):
        if given != held:
            raise ValueError(f"{name}={given} contradicts the world's {name}={held}")
    if not 1 <= attrs_per_image <= world.attrs_per_class:
        raise ValueError(f"attrs_per_image must lie in [1, {world.attrs_per_class}], got {attrs_per_image}")
    rng = rng_from_seed(seed, 202, int.from_bytes(split.encode(), "big"))
    pair_ids, image_ids, images, captions, tokens, token_counts = [], [], [], [], [], []
    for i in range(n_images):
        cls = int(rng.integers(world.latent_classes))
        slots = np.sort(rng.choice(world.attrs_per_class, size=attrs_per_image, replace=False))
        latents = world.attr_latents[cls][slots]
        extra = int(rng.integers(0, 3))
        rows = [latents[j % attrs_per_image] for j in range(attrs_per_image + extra)]
        image = np.stack(rows) @ world.proj_img
        images.append(image + noise * rng.standard_normal(image.shape))
        image_ids.append(f"{split}-c{cls}-i{i:05d}")
        for k in range(captions_per_image):
            n_distract = int(rng.integers(1, 3))
            picks = rng.choice(len(DISTRACTOR_TOKENS), size=n_distract, replace=False)
            words = ([world.attr_token(cls, int(s)) for s in slots]
                     + [DISTRACTOR_TOKENS[int(p)] for p in picks])
            # each token's latent row, shuffled together with the tokens
            token_latents = np.concatenate([latents, world.distractor_latents[picks]])
            order = rng.permutation(len(words))
            tokens += [words[int(o)] for o in order]
            token_counts.append(len(words))
            captions.append(token_latents[order] @ world.proj_txt)
            pair_ids.append(f"{image_ids[-1]}-cap{k}")
    vocabulary: dict[str, int] = {}  # each token's code, in order of first appearance
    codes = [vocabulary.setdefault(t, len(vocabulary)) for t in tokens]
    return Dataset(np.array(pair_ids, dtype=str), np.array(image_ids, dtype=str),
                   np.repeat(np.arange(n_images, dtype=np.int64), captions_per_image),
                   np.array([len(x) for x in images], dtype=np.int64), np.concatenate(images),
                   np.array([len(x) for x in captions], dtype=np.int64), np.concatenate(captions),
                   np.array(list(vocabulary), dtype=str), np.array(token_counts, dtype=np.int64),
                   np.array(codes, dtype=np.int64))


# ---------------------------------------------------------------------------
# array streams: dataset files and checkpoints
# ---------------------------------------------------------------------------

def _load(fh, where: str) -> np.ndarray:
    """The next .npy array of the stream ``fh``, named ``where`` in errors.

    Refused before any byte of the array is read: a header of another
    format version than 1.0, a negative dimension, an array larger than
    the rest of the file and an object array.
    """
    try:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("only .npy format version 1.0 is read")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    if min(shape, default=0) < 0:
        raise ValueError(f"{where}: shape {shape} has a negative dimension")
    if math.prod(shape) * dtype.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{where}: the file ends inside it")
    if dtype.hasobject:
        raise ValueError(f"{where}: Object arrays cannot be loaded when allow_pickle=False")
    arr = np.fromfile(fh, dtype=dtype, count=math.prod(shape))
    return arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape)


def _save_stream(path, arrays) -> None:
    """Write ``arrays`` to ``path`` as one .npy stream; a save that fails partway removes its file."""
    fh = open(path, "wb")
    try:
        with fh:
            for arr in arrays:
                np.save(fh, arr, allow_pickle=False)
    except BaseException:
        os.remove(path)
        raise


def save_dataset(data: Dataset, path) -> None:
    """Write the ten arrays of ``data`` to ``path`` as one stream, in field order."""
    _save_stream(path, (getattr(data, f.name) for f in fields(Dataset)))


def load_dataset(path, max_seq_len: int = 64) -> Dataset:
    """Read a file ``save_dataset`` wrote; errors name the record, the image or the array.

    The reader refuses what is no stream of ten arrays (``_load``'s
    refusals and bytes after the last array), the ``Dataset`` built from
    them checks everything else, and a sequence longer than
    ``max_seq_len`` rows is refused last.
    """
    if type(max_seq_len) is not int or max_seq_len < 1:
        raise ValueError(f"max_seq_len must be a positive int, got {max_seq_len!r}")
    with open(path, "rb") as fh:
        arrays = [_load(fh, f"dataset array {f.name!r}") for f in fields(Dataset)]
        if fh.read(1):
            raise ValueError(f"dataset {path}: bytes follow the last array")
    data = Dataset(*arrays)
    for field, owners, label in (("image", data.image_ids, "image"), ("caption", data.pair_ids, "record")):
        _in_range(getattr(data, f"{field}_lengths"), 1, max_seq_len, f"{field}_features length",
                  lambda i: f"{label} {str(owners[i])!r}")
    return data


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

class AlignmentModel:
    """Both branches' parameters and forward passes.

    The visual aggregator is shared between the instance embedding and
    the concept-branch query; the textual side uses separate aggregators
    for the two roles. ``concept_inputs``, the graph's
    ``knowledge.concept_inputs`` array, is a read-only constant; only
    the convolution weight, the two query matrices (``query``, one per
    modality, both starting at the identity), and the classifier train
    on the concept side.
    """

    def __init__(self, cfg: TrainConfig, d_img: int, d_txt: int, concept_inputs: np.ndarray):
        rng = rng_from_seed(cfg.seed, 11)
        f = EMBED_DIM
        self.concept_inputs = np.array(concept_inputs, dtype=np.float64)
        self.concept_inputs.setflags(write=False)
        self.vis_agg = FeatureAggregator(d_img, f, rng=rng)
        self.txt_agg = FeatureAggregator(d_txt, f, rng=rng)
        self.txt_concept_agg = FeatureAggregator(d_txt, f, rng=rng)
        if d_img == d_txt:
            # symmetric start: both modalities leave the gate with the same
            # encoder, mirroring how pretrained features arrive pre-aligned
            for k, m in self.vis_agg.p.items():
                self.txt_agg.p[k] = Matrix(m.value)
                self.txt_concept_agg.p[k] = Matrix(m.value)
        self.query: dict[str, Matrix] = {"w_visual": Matrix(np.eye(f)),
                                         "w_textual": Matrix(np.eye(f))}
        d_c = self.concept_inputs.shape[1]
        self.extra: dict[str, Matrix] = {
            "w_sc": Matrix(rng.standard_normal((d_c, f)) / np.sqrt(d_c)),
            "classifier": Matrix(0.01 * rng.standard_normal((cfg.k_clusters, f))),
        }
        self.groups: dict[str, dict[str, Matrix]] = {
            "vis": self.vis_agg.p,
            "txt": self.txt_agg.p,
            "txtc": self.txt_concept_agg.p,
            "query": self.query,
            "extra": self.extra,
        }
        self.encoder_pair = EncoderPair({"vis": self.vis_agg.p, "txt": self.txt_agg.p})

    def param_items(self):
        return named_params(self.groups)

    def set_param(self, name: str, value: Matrix) -> None:
        prefix, key = name.split(".", 1)
        self.groups[prefix][key] = value

    def concept_basis(self) -> Matrix:
        return kn.gcn_forward(self.concept_inputs, self.extra["w_sc"])

    def concept_embed(self, query: Matrix, basis: Matrix, weight: str) -> Matrix:
        """The unit concept embedding of ``query`` under ``self.query[weight]``."""
        return kn.concept_query(query, self.query[weight], basis)[0]


@dataclass
class TrainState:
    """Everything training accumulates: parameters, mirrors, the queue, prototypes.

    ``adam`` is one state over all parameters, flattened and concatenated
    in ``model.param_items()`` order; ``bank`` queues ``[v | w]`` momentum
    pairs. ``best`` holds the best held-out rsum, the ``epochs_run`` when
    it was reached and that epoch's parameters and momentum mirror.
    """

    config: TrainConfig
    model: AlignmentModel
    adam: AdamState
    bank: MemoryBank
    prototypes: PrototypeState | None = None
    epochs_run: int = 0
    best: dict | None = None


def _fresh_state(cfg: TrainConfig, model: AlignmentModel) -> TrainState:
    """A state around ``model`` with a zeroed flat Adam state and an empty queue."""
    size = sum(m.value.size for _, m in model.param_items())
    return TrainState(cfg, model, AdamState(1, size, cfg.lr),
                      MemoryBank(cfg.bank_capacity, 2 * EMBED_DIM))


def build_state(cfg: TrainConfig, data: Dataset) -> TrainState:
    """Initialize model, optimizer state and queue from a training set."""
    # one code per distinct token, since the graph counts tokens and a vocabulary may list one twice
    vocabulary, distinct = np.unique(data.vocabulary, return_inverse=True)
    codes = distinct[data.token_codes]
    concepts = kn.build_vocabulary(vocabulary, codes, cfg.concepts)
    adjacency = kn.binarize(kn.build_cooccurrence(data.token_counts, codes, concepts))
    inputs = kn.concept_inputs(adjacency, EMBED_DIM, cfg.seed)
    return _fresh_state(cfg, AlignmentModel(cfg, data.image_rows.shape[1], data.caption_rows.shape[1],
                                            inputs))


# ---------------------------------------------------------------------------
# losses for one batch
# ---------------------------------------------------------------------------

def _diversities(cfg: TrainConfig, sim: SimilarityMatrix):
    """Diversity weights of both directions: rows as anchors, then columns."""
    return (obj._estimate(sim, cfg.diversity_estimator),
            obj._estimate(sim.transposed(), cfg.diversity_estimator))


def _instance_loss(cfg: TrainConfig, sim: SimilarityMatrix, div) -> Matrix:
    if cfg.instance_loss == "triplet":
        return obj.triplet_baseline_loss(sim)
    if cfg.instance_loss == "dcl_i":
        return obj.dcl_i_loss(sim, cfg.mu, cfg.gamma)
    return obj.dcl_loss(sim, *div, cfg.mu, cfg.gamma)


def batch_losses(state: TrainState, images: tuple[np.ndarray, np.ndarray],
                 captions: tuple[np.ndarray, np.ndarray], labels: np.ndarray | None
                 ) -> tuple[Matrix, dict[str, float], np.ndarray]:
    """Forward both branches on one batch, its images' and its captions' ``(lengths, rows)``.

    Every encoder of a modality reads that modality's one pair. Returns
    the loss ``lambda_weight * l_dcl_i + l_mdcl + l_dcl_c + l_pgc``
    as one graph node, where each of the last three is added only when it
    is on; each part's value by name, 0.0 for a part that is off; and the
    batch's momentum ``[v | w]`` pairs, the queue's rows: [n, 2f], or [0, 2f] with no queue.
    """
    cfg = state.config
    model = state.model
    v_inst = model.vis_agg.aggregate_batch(*images)
    w_inst = model.txt_agg.aggregate_batch(*captions)
    # the momentum encoders take no gradient, so they build no graph, and with no queue they do not run
    pairs = np.empty((0, 2 * EMBED_DIM))
    if cfg.bank_capacity:
        pairs = np.hstack([model.vis_agg.forward(*images, model.encoder_pair.momentum_group("vis")),
                           model.txt_agg.forward(*captions, model.encoder_pair.momentum_group("txt"))])

    sim = obj.cosine_matrix(v_inst, w_inst)
    # DCL and the memory loss share one diversity estimate
    memory_on = len(state.bank) >= min(cfg.batch_size, cfg.bank_capacity) > 0
    div = _diversities(cfg, sim) if cfg.instance_loss == "dcl" or memory_on else None
    # each part in the order the total adds it
    losses = {"l_dcl_i": _instance_loss(cfg, sim, div)}
    if memory_on:
        losses["l_mdcl"] = obj.m_dcl_loss(v_inst, w_inst, *np.hsplit(pairs, 2),
                                          *np.hsplit(state.bank.view(), 2), *div, cfg.mu, cfg.gamma,
                                          estimator=cfg.diversity_estimator)
    if cfg.use_concept_losses:
        basis = model.concept_basis()
        v_concept = model.concept_embed(v_inst, basis, "w_visual")
        w_concept = model.concept_embed(model.txt_concept_agg.aggregate_batch(*captions), basis,
                                        "w_textual")
        concept_sim = obj.cosine_matrix(v_concept, w_concept)
        losses["l_dcl_c"] = obj.dcl_loss(concept_sim, *_diversities(cfg, concept_sim),
                                         cfg.mu, cfg.gamma)
        if labels is not None:
            losses["l_pgc"] = obj.pgc_loss(v_concept, w_concept, model.extra["classifier"], labels)

    instance, *others = losses.values()
    total = instance * cfg.lambda_weight
    for loss in others:
        total = total + loss
    parts = dict.fromkeys(LOSS_PARTS, 0.0)
    parts.update({name: loss.item() for name, loss in losses.items()})
    return total, parts, pairs


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _gather(lengths: np.ndarray, rows: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths[index], their rows)``: the sequences ``index`` names, in its order, rows stacked."""
    picked = lengths[index]
    ends = np.cumsum(picked)
    # row r of the result, in picked sequence s, is row r + shift[s] of ``rows``
    shift = (np.cumsum(lengths) - lengths)[index] - (ends - picked)
    return picked, rows[np.arange(ends[-1]) + np.repeat(shift, picked)]


def _instance_sums(state: TrainState, data: Dataset) -> np.ndarray:
    """v + w per record from the main encoders, for prototype clustering.

    Each image is embedded once. Both sides are embedded in ``_runs``
    runs; each caption run's sums are written in place into the one
    [n_records, f] result, so no other array of that size is made.
    """
    model = state.model
    v = np.empty((len(data.image_ids), EMBED_DIM))
    for lo, hi, run in _runs(data.image_lengths, data.image_rows):
        v[lo:hi] = model.vis_agg.forward(*run)
    sums = np.empty((len(data), EMBED_DIM))
    for lo, hi, run in _runs(data.caption_lengths, data.caption_rows):
        np.add(v[data.caption_image[lo:hi]], model.txt_agg.forward(*run), out=sums[lo:hi])
    return sums


def _adam_update(state: TrainState) -> None:
    """One Adam step over every parameter as one flat vector; a parameter with no grad gets zeros.

    ``adam_step`` rejects a non-finite result before any parameter is set;
    each new parameter is then a read-only view of that one checked result.
    """
    items = list(state.model.param_items())
    flat = Matrix(np.concatenate([m.value.ravel() for _, m in items]).reshape(1, -1))
    grads = np.concatenate([np.zeros(m.value.size) if m.grad is None else m.grad.ravel()
                            for _, m in items]).reshape(1, -1)
    new = adam_step(state.adam, flat, grads)
    for (name, _), leaf in zip(items, nm.split_leaves(new, [m.shape for _, m in items])):
        state.model.set_param(name, leaf)


def _snapshot(state: TrainState) -> dict[str, dict[str, np.ndarray]]:
    """Copies of the parameters and the momentum mirror, by name."""
    return {"params": {name: m.value.copy() for name, m in state.model.param_items()},
            "momentum": {name: arr.copy() for name, arr in state.model.encoder_pair.momentum.items()}}


def train(cfg: TrainConfig, data: Dataset,
          val_data: Dataset | None = None) -> tuple[TrainState, list[dict]]:
    """Run the full two-branch loop; returns the final state and per-epoch rows.

    Per epoch: cluster the summed instance embeddings into prototypes
    (seed once, then refine: k-means++ seeds them in epoch 0 only, and
    each later epoch runs Lloyd from the last epoch's centroids, so
    cluster ids stay stable), shuffle caption records, and per batch
    compute all enabled losses, take one Adam step, move the momentum
    mirror, and enqueue the batch's momentum ``[v | w]`` pairs. The memory
    loss stays off until the queue holds a batch or is full, and the
    learning rate drops x0.1 at half the run. Evaluates on ``val_data``
    every epoch and keeps the best-rsum parameter snapshot. A
    ``NonFiniteError`` becomes a ``RuntimeError`` that names the epoch and
    the batch or the clustering.
    """
    state = build_state(cfg, data)
    rows: list[dict] = []
    drop_at = max(cfg.epochs // 2, 1)
    shuffle_rng = rng_from_seed(cfg.seed, 12)

    for epoch in range(cfg.epochs):
        state.adam.lr = cfg.lr * (0.1 if epoch >= drop_at else 1.0)

        labels_all = None
        if cfg.use_concept_losses:
            try:
                points = _instance_sums(state, data)
            except nm.NonFiniteError as e:
                raise RuntimeError(f"non-finite value at epoch {epoch}, clustering: {e}") from e
            start = state.prototypes.centroids if state.prototypes is not None else None
            state.prototypes = obj.kmeans_cluster(points, min(cfg.k_clusters, len(data)),
                                                  seed=cfg.seed, n_init=4, start_centroids=start)
            labels_all = state.prototypes.labels

        order = shuffle_rng.permutation(len(data))
        sums = dict.fromkeys((*LOSS_PARTS, "total"), 0.0)
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            images = _gather(data.image_lengths, data.image_rows, data.caption_image[batch_idx])
            captions = _gather(data.caption_lengths, data.caption_rows, batch_idx)
            labels = labels_all[batch_idx] if labels_all is not None else None
            try:
                total, parts, pairs = batch_losses(state, images, captions, labels)
                backward(total)
                _adam_update(state)
            except nm.NonFiniteError as e:
                raise RuntimeError(
                    f"non-finite value at epoch {epoch}, batch {n_batches}: {e}") from e
            state.model.encoder_pair.momentum_update()
            state.bank.enqueue(pairs)
            for key, value in (*parts.items(), ("total", total.item())):
                sums[key] += value
            n_batches += 1

        row = {"epoch": epoch}
        row.update({k: v / max(n_batches, 1) for k, v in sums.items()})
        if val_data is not None:
            result = evaluate(state, val_data, cfg.beta)
            row.update(result.as_row())
            if state.best is None or result.rsum > state.best["rsum"]:
                state.best = {"rsum": result.rsum, "epochs_run": epoch + 1, **_snapshot(state)}
        else:
            row.update(EvalResult(*[float("nan")] * len(fields(EvalResult))).as_row())
        rows.append(row)
        state.epochs_run = epoch + 1
    return state, rows


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class StackedScores:
    """The score matrix ``left @ right.T``, formed one tile at a time.

    Indexing as ``scores[rows, cols]`` returns ``left[rows] @
    right[cols].T`` as one matmul, so ``recalls_from_similarity`` can rank
    from the factors without the dense [n_left x n_right] product. BLAS
    can round a cell's last bits differently in products of different
    shapes, so the canonical value of a cell is the one its tile gives:
    ``scores[r0:r1, lo:hi]`` with rows and columns cut at multiples of
    ``RANK_BLOCK``. The ranking reads every cell from that tile only.
    """

    ndim = 2

    def __init__(self, left: np.ndarray, right: np.ndarray):
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
            raise ValueError("StackedScores needs two 2-D factors of equal width, "
                             f"got shapes {left.shape} and {right.shape}")
        self.left, self.right = left, right
        self.shape = (left.shape[0], right.shape[0])
        self.size = self.shape[0] * self.shape[1]

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        return self.left[rows] @ self.right[cols].T


def _count(mask: np.ndarray, axis: int) -> np.ndarray:
    """True cells of a boolean tile ``mask`` along ``axis``, as uint16: a tile side is RANK_BLOCK at most."""
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.uint16)


def recalls_from_similarity(scores: np.ndarray | StackedScores,
                            caption_image: np.ndarray) -> EvalResult:
    """Recall@{1,5,10} both ways from a [n_images x n_captions] score matrix.

    ``caption_image[j]`` is the row index of caption j's ground-truth
    image, an integer array. A rank is counted, not sorted: a candidate
    with score s is ahead of a target with score t when s > t, or when
    s == t and the candidate has the lower index, so ties rank the lower
    index first. Text to image ranks caption j's image within column j.
    Image to text ranks an image by its best caption, the one with its
    highest score and the lowest index among ties, within the image's
    row; an image with no caption never hits. A candidate may be NaN or
    infinite, and a NaN candidate is never ahead. Every ground-truth score
    must be finite: a NaN, +inf or -inf one is an error that names the
    lowest such caption column, as is a matrix with no image or no caption.

    ``scores`` is a dense array or a ``StackedScores``; either way it is
    read only as tiles ``scores[r0:r1, lo:hi]`` cut at multiples of
    ``RANK_BLOCK`` both ways, each read of a tile with the same bounds, so
    every count and every target comes from the one canonical cell value.
    A pre-pass forms only the tiles that hold a ground-truth cell and
    reads each caption's target score t there. The main pass then forms
    every tile once and counts both ways with one scalar per column and
    one per row:

    - down column j, s >= t (as s > nextafter(t, -inf)) in the tiles
      above the target's and s > t from its tile on. In its own tile, a
      column tied beyond its own cell also counts its equal cells in
      lower rows;
    - along each image's row, s >= best in the column blocks before its
      best caption's and s > best from that block on. Only the rows whose
      best caption lies in the block count their lower-index ties
      exactly.

    Extra memory is O(RANK_BLOCK^2) for a tile besides the per-row and
    per-column scores and counts.
    """
    if not isinstance(scores, StackedScores):
        scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a 2-D [n_images x n_captions] matrix, got {scores.ndim}-D")
    n_img, n_cap = scores.shape
    if scores.size == 0:
        raise ValueError(f"scores must hold at least one image and one caption, got shape {scores.shape}")
    caption_image = np.asarray(caption_image)
    if not np.issubdtype(caption_image.dtype, np.integer):
        raise ValueError(f"caption_image must hold integers, got dtype {caption_image.dtype}")
    caption_image = caption_image.astype(np.int64, copy=False)
    if caption_image.shape != (n_cap,):
        raise ValueError("need one ground-truth image per caption column")
    bad = np.flatnonzero((caption_image < 0) | (caption_image >= n_img))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"caption column {j} names image {caption_image[j]}, outside [0, {n_img})")

    cap_index = np.arange(n_cap)
    tiles = [(r0, min(r0 + RANK_BLOCK, n_img)) for r0 in range(0, n_img, RANK_BLOCK)]
    blocks = [(lo, min(lo + RANK_BLOCK, n_cap)) for lo in range(0, n_cap, RANK_BLOCK)]
    target_tile = caption_image // RANK_BLOCK
    gt_score = np.empty(n_cap)
    # per block, per row tile: the block's columns whose ground truth lies in that tile
    own_cols = []
    for lo, hi in blocks:
        own = [np.flatnonzero(target_tile[lo:hi] == k) for k in range(len(tiles))]
        for (r0, r1), cols in zip(tiles, own):
            if cols.size:
                gt_score[lo + cols] = scores[r0:r1, lo:hi][caption_image[lo + cols] - r0, cols]
        own_cols.append(own)
    bad = np.flatnonzero(~np.isfinite(gt_score))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"caption column {j} has a non-finite ground-truth score {gt_score[j]}")

    best_score = np.full(n_img, -np.inf)
    np.maximum.at(best_score, caption_image, gt_score)
    is_best = gt_score == best_score[caption_image]
    best_cap = np.full(n_img, n_cap)
    np.minimum.at(best_cap, caption_image[is_best], cap_index[is_best])

    has_caption = best_cap < n_cap
    # below the lowest finite float lies -inf, which every cell but -inf and NaN passes
    with np.errstate(over="ignore"):
        below_best = np.nextafter(best_score, -np.inf)
        below_gt = np.nextafter(gt_score, -np.inf)
    tile_starts = np.arange(RANK_BLOCK, n_img, RANK_BLOCK)
    image_rank = np.zeros(n_cap, dtype=np.uint64)
    text_rank = np.zeros(n_img, dtype=np.uint64)
    for (lo, hi), own in zip(blocks, own_cols):
        gt, gt_img = gt_score[lo:hi], caption_image[lo:hi]
        # each column compares with nextafter(t, -inf) above its target's tile, with t from it on
        col_thr = below_gt[lo:hi].copy()
        row_thr = np.where(best_cap >= hi, below_best, best_score)[:, None]
        exact = np.flatnonzero((best_cap >= lo) & (best_cap < hi))
        exact_rows = np.split(exact, np.searchsorted(exact, tile_starts))
        for (r0, r1), cols, rows in zip(tiles, own, exact_rows):
            tile = scores[r0:r1, lo:hi]
            col_thr[cols] = gt[cols]
            ahead = _count(tile > col_thr, axis=0)
            if cols.size:
                # the targets' own tile: lower-row ties, counted only beyond a column's own cell
                ties = tile == col_thr
                tied = cols[_count(ties, axis=0)[cols] > 1]
                if tied.size:
                    lower = np.arange(r0, r1)[:, None] < gt_img[tied]
                    ahead[tied] += _count(ties[:, tied] & lower, axis=0)
            image_rank[lo:hi] += ahead
            text_rank[r0:r1] += _count(tile > row_thr[r0:r1], axis=1)
            if rows.size:
                ties = tile[rows - r0] == best_score[rows, None]
                text_rank[rows] += _count(ties & (cap_index[lo:hi] < best_cap[rows, None]), axis=1)

    text = [int(np.count_nonzero(has_caption & (text_rank < k))) for k in (1, 5, 10)]
    image = [int(np.count_nonzero(image_rank < k)) for k in (1, 5, 10)]
    rsum = 100 * (sum(text) * n_cap + sum(image) * n_img) / (n_img * n_cap)  # equal hits, equal bits
    return EvalResult(*[100.0 * h / n_img for h in text], *[100.0 * h / n_cap for h in image], rsum)


def embed_for_retrieval(state: TrainState, data: Dataset):
    """Instance and concept embeddings for every image and caption.

    Returns ``(image_ids, caption_image, v, w, vc, wc)``. Each side is
    written in place into one score factor, ``[v | vc]`` for the images
    and ``[w | wc]`` for the captions, and ``v``, ``vc``, ``w`` and
    ``wc`` are its column views. Sequences are embedded in ``_runs`` runs
    of at most ``EMBED_ROWS`` feature rows, each handed to the encoders
    as slices of the dataset's row arrays: each caption run is read by
    both caption encoders, and each run's concept query follows its
    encoders. Besides the two factors, extra memory is O(EMBED_ROWS x d),
    d the widest feature or embedding row.
    """
    model = state.model
    basis = model.concept_basis()
    f = EMBED_DIM
    factors = []
    for agg, concept_agg, weight, lengths, rows in (
            (model.vis_agg, None, "w_visual", data.image_lengths, data.image_rows),
            (model.txt_agg, model.txt_concept_agg, "w_textual", data.caption_lengths,
             data.caption_rows)):
        factor = np.empty((len(lengths), 2 * f))
        for lo, hi, run in _runs(lengths, rows):
            inst = agg.forward(*run)
            # the visual concept query is the instance embedding
            query = inst if concept_agg is None else concept_agg.forward(*run)
            factor[lo:hi, :f] = inst
            factor[lo:hi, f:] = model.concept_embed(Matrix(query), basis, weight).value
        factors.append(factor)
    image, caption = factors
    return (data.image_ids, data.caption_image, image[:, :f], caption[:, :f], image[:, f:],
            caption[:, f:])


def evaluate(state: TrainState, data: Dataset, beta: float | None = None) -> EvalResult:
    """Retrieval recalls under the beta-blend of both branches' cosine similarities.

    The blend is scored as ``L @ R.T`` with ``L = [beta*v | (1-beta)*vc]``
    and ``R = [w | wc]``, which differs from ``beta*(v @ w.T) +
    (1-beta)*(vc @ wc.T)`` only in the last bits; that product, formed
    one ``RANK_BLOCK x RANK_BLOCK`` tile at a time, is the canonical
    score. ``R`` is the caption factor ``embed_for_retrieval`` fills, not
    a copy; ``L`` has a row per image. ``recalls_from_similarity`` reads
    the ground-truth cells from their tiles, which are finite as dot
    products of finite unit rows, then forms every tile once and counts
    each rank: a cell is ahead of the ground truth when s > t, or when
    s == t at a lower index. Besides the two factors and ``L``, extra
    memory is O(RANK_BLOCK^2) for ranking, beside its per-image and
    per-caption vectors, plus O(EMBED_ROWS x d) for embedding.
    """
    beta = state.config.beta if beta is None else beta
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    _, caption_image, v, w, vc, wc = embed_for_retrieval(state, data)
    # w and wc are column views of the caption factor [w | wc]
    scores = StackedScores(np.hstack([beta * v, (1.0 - beta) * vc]), w.base)
    return recalls_from_similarity(scores, caption_image)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, state: TrainState, which: str = "best") -> None:
    """Write parameters, momentum mirror, config and the frozen ``concept_inputs`` as one array stream.

    A 0-d str array holds the JSON header: ``version``, ``epoch``,
    ``config``, ``dims`` and the names of the ``params`` and ``momentum``
    arrays. ``concept_inputs`` follows, so a load redraws nothing from the
    seed, then one <f8 array per name, in the header's order.
    ``which="best"`` takes the best-validation snapshot when one exists;
    ``epoch`` counts the epochs run when the saved arrays were taken.
    """
    if which not in ("best", "final"):
        raise ValueError("which must be 'best' or 'final'")
    params = {name: m.value for name, m in state.model.param_items()}
    momentum = state.model.encoder_pair.momentum
    epoch = state.epochs_run
    if which == "best" and state.best is not None:
        params, momentum = state.best["params"], state.best["momentum"]
        epoch = state.best["epochs_run"]
    header = {"version": CHECKPOINT_VERSION, "epoch": epoch, "config": asdict(state.config),
              "dims": {"d_img": state.model.vis_agg.d_in, "d_txt": state.model.txt_agg.d_in},
              "params": list(params), "momentum": list(momentum)}
    floats = (state.model.concept_inputs, *params.values(), *momentum.values())
    _save_stream(path, [np.array(json.dumps(header)), *(np.asarray(a, dtype="<f8") for a in floats)])


def _floats(fh, where: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The stream's next array, which must be finite <f8 and of ``shape`` if given."""
    arr = _load(fh, where)
    if arr.dtype != "<f8":
        raise ValueError(f"{where} must be a <f8 array, got {arr.dtype}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} contains non-finite values")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{where}: shape {list(arr.shape)} but the model's is {list(shape)}")
    return arr


def _read_section(fh, names: list, model_arrays: dict[str, np.ndarray], kind: str):
    """The arrays the header lists as ``names``, which must name and shape exactly the model's."""
    if not all(type(name) is str for name in names):
        raise ValueError(f"checkpoint section {kind!r} must list array names, got {names!r}")
    twice = next((name for name, n in Counter(names).items() if n > 1), None)
    if twice is not None:
        raise ValueError(f"checkpoint {kind} {twice!r}: listed twice")
    odd = sorted(model_arrays.keys() ^ set(names))
    if odd:
        why = "missing from the file" if odd[0] in model_arrays else "not a parameter of this model"
        raise ValueError(f"checkpoint {kind} {odd[0]!r}: {why}")
    return {name: _floats(fh, f"checkpoint {kind} {name!r}", model_arrays[name].shape)
            for name in names}


def _entry(section: dict, kind: str, name: str, want: type, least: int | None = None):
    """``section[name]``, a JSON value of type ``want``, at least ``least`` if given; errors name it."""
    where = f"checkpoint {kind} {name!r}"
    if name not in section:
        raise ValueError(f"{where}: missing from the file")
    value = section[name]
    if type(value) is not want:
        raise ValueError(f"{where} must be of type {want.__name__}, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{where} must be at least {least}, got {value}")
    return value


def load_checkpoint(path) -> TrainState:
    """Rebuild a state that evaluates as the saved one did, bit for bit; errors name the entry.

    A file that is no array stream (versions 1 to 4 were JSON) is an unsupported version.
    """
    with open(path, "rb") as fh:
        if not fh.peek(6).startswith(np.lib.format.MAGIC_PREFIX):
            raise ValueError("unsupported checkpoint version: the file is no stream of .npy arrays")
        head = _load(fh, "checkpoint header")
        try:
            header = json.loads(head.item()) if head.dtype.kind == "U" and head.ndim == 0 else None
        except (ValueError, RecursionError) as e:  # a header nested too deep for the decoder
            raise ValueError(f"checkpoint header: {e}") from None
        if type(header) is not dict:
            raise ValueError(f"checkpoint header must be a 0-d str array of a JSON object, got "
                             f"{type(header).__name__} from {head.dtype} of shape {head.shape}")
        if _entry(header, "section", "version", int) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        epoch = _entry(header, "section", "epoch", int, least=0)
        for section, want in (("config", dict), ("dims", dict), ("params", list), ("momentum", list)):
            _entry(header, "section", section, want)
        # a missing field would take its default, not the value the model trained with
        odd = sorted({f.name for f in fields(TrainConfig)} ^ header["config"].keys())
        if odd:
            why = "missing from the file" if odd[0] not in header["config"] else "not a config field"
            raise ValueError(f"checkpoint config {odd[0]!r}: {why}")
        cfg = TrainConfig(**header["config"])
        d_img, d_txt = (_entry(header["dims"], "dims", key, int, least=1) for key in ("d_img", "d_txt"))
        where = "checkpoint section 'concept_inputs'"
        inputs = _floats(fh, where)
        if inputs.ndim != 2 or not 1 <= inputs.shape[0] <= cfg.concepts or inputs.shape[1] != EMBED_DIM:
            raise ValueError(f"{where} must have 1 to {cfg.concepts} rows of width {EMBED_DIM}, "
                             f"got shape {list(inputs.shape)}")
        # refuse a size whose EMBED_DIM-float rows the rest of the file cannot hold, before drawing them
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for where, rows in (("dims 'd_img'", d_img), ("dims 'd_txt'", d_txt),
                            ("config 'k_clusters'", cfg.k_clusters)):
            if rows * EMBED_DIM * 8 > left:
                raise ValueError(f"checkpoint {where}: {rows} rows of {EMBED_DIM} floats exceed "
                                 f"the {left} bytes left in the file")
        model = AlignmentModel(cfg, d_img, d_txt, inputs)
        params = {name: m.value for name, m in model.param_items()}
        for name, arr in _read_section(fh, header["params"], params, "params").items():
            model.set_param(name, Matrix(arr))
        model.encoder_pair.momentum = _read_section(fh, header["momentum"],
                                                    model.encoder_pair.momentum, "momentum")
        if fh.read(1):
            raise ValueError("checkpoint: bytes follow the last array")
    state = _fresh_state(cfg, model)
    state.epochs_run = epoch
    return state
