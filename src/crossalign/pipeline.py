"""Dataset synthesis and IO, the two-branch trainer, and retrieval evaluation.

Records are caption-granular: each carries its caption's token list and
feature sequence plus its image's feature sequence, so an image with r
captions appears in r records. Those records may share one image array
(``generate_synthetic`` and ``load_dataset`` both do so), and feature
arrays are read-only by convention.

A dataset file is JSONL, one record per line::

    {"pair_id": str, "image_id": str,
     "image_features": blob, "caption_tokens": [str, ...],
     "caption_features": blob}

where a blob is ``{"shape": [L, d], "data": <base64 of little-endian
float64>}``, the same array form the checkpoints use. ``pair_id`` is
unique, every sequence has 1 to ``max_seq_len`` finite rows, and all
image sequences share one width d_img, all caption sequences one d_txt.

Training runs both branches per batch (instance embeddings with in-batch
and memory-bank contrastive losses; concept embeddings with their own
contrastive loss and a pseudo-label classification loss), updates all
parameters with Adam, moves the momentum mirror, and feeds the momentum
embeddings into the queues.

Evaluation ranks with the beta-blend of instance-level and concept-level
cosine similarity. Its canonical form is one matmul of stacked factors,
``[beta*v | (1-beta)*vc] @ [w | wc].T``, formed and ranked one block of
``RANK_BLOCK`` captions at a time, so no [n_images x n_captions] matrix
is ever held: extra memory is O(n_images x RANK_BLOCK).
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import knowledge as kn
from . import numerics as nm
from . import objective as obj
from .numerics import AdamState, Matrix, adam_step, backward, rng_from_seed
from .objective import PrototypeState, SimilarityMatrix
from .representation import EncoderPair, FeatureAggregator, MemoryBank, named_params

CHECKPOINT_VERSION = 3
# caption columns ranked at once by recalls_from_similarity
RANK_BLOCK = 256


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass
class PairedRecord:
    pair_id: str
    image_id: str
    image_features: np.ndarray
    caption_tokens: list[str]
    caption_features: np.ndarray


@dataclass
class PairedDataset:
    records: list[PairedRecord]

    def __len__(self) -> int:
        return len(self.records)

    def corpus(self) -> list[list[str]]:
        return [r.caption_tokens for r in self.records]


@dataclass
class EvalResult:
    """Recall percentages for both retrieval directions at K in {1, 5, 10}."""

    r1_t: float
    r5_t: float
    r10_t: float
    r1_i: float
    r5_i: float
    r10_i: float

    @property
    def rsum(self) -> float:
        return self.r1_t + self.r5_t + self.r10_t + self.r1_i + self.r5_i + self.r10_i

    def as_row(self) -> dict[str, float]:
        return {
            "r1_t": self.r1_t, "r5_t": self.r5_t, "r10_t": self.r10_t,
            "r1_i": self.r1_i, "r5_i": self.r5_i, "r10_i": self.r10_i,
            "rsum": self.rsum,
        }


@dataclass
class TrainConfig:
    """All trainer knobs with desk-scale defaults.

    ``bank_capacity`` defaults to 512 at desk scale (use 4096 to match
    large-corpus training); the learning rate starts at 2e-4 and drops by
    ``lr_drop_factor`` at ``lr_drop_epoch`` (half the run when unset,
    mirroring a drop after 15 of 30 epochs).
    """

    embed_dim: int = 32
    d_p: int = 32
    decoder_hidden: int = 16
    mu: float = 0.1
    gamma: float = 0.3
    lambda_weight: float = 3.0
    beta: float = 0.9
    bank_capacity: int = 512
    momentum: float = 0.995
    eps_div: float = 0.1
    concept_smoothness: float = 10.0
    k_clusters: int = 16
    concepts: int = 24
    eps_t: float = 0.3
    batch_size: int = 32
    epochs: int = 20
    lr: float = 2e-4
    lr_drop_epoch: int | None = None
    lr_drop_factor: float = 0.1
    seed: int = 0
    diversity_estimator: str = "std"
    instance_loss: str = "dcl"
    use_memory_loss: bool = True
    use_concept_losses: bool = True
    triplet_margin: float = 0.2

    def validate(self) -> None:
        checks = [
            (self.embed_dim >= 2, "embed_dim must be at least 2"),
            (self.d_p > 0 and self.d_p % 2 == 0, "d_p must be a positive even number"),
            (self.decoder_hidden >= 1, "decoder_hidden must be positive"),
            (self.mu > 0, "mu must be positive"),
            (self.gamma >= 0, "gamma must be non-negative"),
            (self.lambda_weight >= 0, "lambda_weight must be non-negative"),
            (0.0 <= self.beta <= 1.0, "beta must lie in [0, 1]"),
            (self.bank_capacity >= 1, "bank_capacity must be positive"),
            (0.0 <= self.momentum <= 1.0, "momentum must lie in [0, 1]"),
            (self.eps_div > 0, "eps_div must be positive"),
            (self.concept_smoothness > 0, "concept_smoothness must be positive"),
            (self.k_clusters >= 1, "k_clusters must be positive"),
            (self.concepts >= 1, "concepts must be positive"),
            (0.0 < self.eps_t < 1.0, "eps_t must lie in (0, 1)"),
            (self.batch_size >= 2, "batch_size must be at least 2"),
            (self.epochs >= 0, "epochs must be non-negative"),
            (self.lr > 0, "lr must be positive"),
            (self.lr_drop_epoch is None or self.lr_drop_epoch >= 0, "lr_drop_epoch must be non-negative"),
            (self.lr_drop_factor > 0, "lr_drop_factor must be positive"),
            (self.seed >= 0, "seed must be non-negative"),
            (self.diversity_estimator in ("std", "entropy"),
             "diversity_estimator must be 'std' or 'entropy'"),
            (self.instance_loss in ("dcl", "dcl_i", "triplet"),
             "instance_loss must be 'dcl', 'dcl_i', or 'triplet'"),
            (self.triplet_margin >= 0, "triplet_margin must be non-negative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(f"invalid config: {message}")

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        """A validated config from JSON values; a float field also takes an int, an int field no bool."""
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(values) - kinds.keys())
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in values.items():
            if type(value) not in _JSON_TYPES[kinds[name]]:
                raise ValueError(f"invalid config: {name} must be {kinds[name]}, "
                                 f"got {type(value).__name__} {value!r}")
        cfg = cls(**values)
        cfg.validate()
        return cfg


# the exact JSON value types each TrainConfig annotation accepts
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
               "int | None": (int, type(None))}


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

DISTRACTOR_TOKENS = ["a", "the", "with", "near", "some", "very", "two", "small"]


@dataclass
class SyntheticWorld:
    """Shared latent tables so different splits describe the same classes."""

    latent_classes: int
    attrs_per_class: int
    d_latent: int
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
    attr = rng.standard_normal((latent_classes, attrs_per_class, d_latent))
    attr /= np.linalg.norm(attr, axis=2, keepdims=True)
    distract = rng.standard_normal((len(DISTRACTOR_TOKENS), d_latent))
    distract /= np.linalg.norm(distract, axis=1, keepdims=True)
    proj_img = rng.standard_normal((d_latent, d_img)) / np.sqrt(d_latent)
    proj_txt = rng.standard_normal((d_latent, d_txt)) / np.sqrt(d_latent)
    if d_img == d_txt:
        a = modality_alignment
        proj_txt = a * proj_img + np.sqrt(1.0 - a * a) * proj_txt
    return SyntheticWorld(latent_classes, attrs_per_class, d_latent, attr, distract,
                          proj_img, proj_txt)


def generate_synthetic(n_images: int, captions_per_image: int = 1, latent_classes: int = 8,
                       noise: float = 0.1, seed: int = 0, *, split: str = "train",
                       world: SyntheticWorld | None = None, attrs_per_image: int = 3,
                       d_img: int = 48, d_txt: int = 48) -> PairedDataset:
    """Deterministic paired dataset over shared latent classes.

    Every image shows a per-image subset of its class's attribute latents
    (projected to image space, plus Gaussian noise); each caption names
    exactly those attributes plus a couple of distractor tokens, with
    features looked up from the fixed latent tables (text side is
    noise-free). Captions are therefore discriminative within a class
    through the attribute combination.
    """
    if n_images < 1 or captions_per_image < 1:
        raise ValueError("need at least one image and one caption per image")
    if latent_classes < 2:
        raise ValueError("need at least two latent classes")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    if world is None:
        world = build_world(latent_classes, seed, d_img=d_img, d_txt=d_txt)
    if attrs_per_image > world.attrs_per_class:
        raise ValueError("attrs_per_image exceeds the class attribute pool")
    rng = rng_from_seed(seed, 202, int.from_bytes(split.encode(), "big"))
    records: list[PairedRecord] = []
    for i in range(n_images):
        cls = int(rng.integers(world.latent_classes))
        slots = np.sort(rng.choice(world.attrs_per_class, size=attrs_per_image, replace=False))
        latents = world.attr_latents[cls][slots]
        extra = int(rng.integers(0, 3))
        rows = [latents[j % attrs_per_image] for j in range(attrs_per_image + extra)]
        image = np.stack(rows) @ world.proj_img
        image = image + noise * rng.standard_normal(image.shape)
        image_id = f"{split}-c{cls}-i{i:05d}"
        for k in range(captions_per_image):
            tokens = [world.attr_token(cls, int(s)) for s in slots]
            n_distract = int(rng.integers(1, 3))
            picks = rng.choice(len(DISTRACTOR_TOKENS), size=n_distract, replace=False)
            tokens = tokens + [DISTRACTOR_TOKENS[int(p)] for p in picks]
            order = rng.permutation(len(tokens))
            tokens = [tokens[int(o)] for o in order]
            token_latents = []
            for tok in tokens:
                if tok.startswith("cls"):
                    c, s = tok[3:].split("attr")
                    token_latents.append(world.attr_latents[int(c), int(s)])
                else:
                    token_latents.append(world.distractor_latents[DISTRACTOR_TOKENS.index(tok)])
            caption = np.stack(token_latents) @ world.proj_txt
            records.append(PairedRecord(f"{image_id}-cap{k}", image_id, image, tokens, caption))
    return PairedDataset(records)


# ---------------------------------------------------------------------------
# array blobs and dataset files (JSONL, one record per caption)
# ---------------------------------------------------------------------------

BLOB_FORM = '{"shape": [...], "data": <base64 of little-endian float64>}'


def _encode(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(blob, where: str, shared: dict | None = None) -> np.ndarray:
    """The finite float64 array an ``_encode`` blob holds; ``where`` names it in errors.

    With ``shared``, a blob whose shape and data equal an earlier one's
    returns that earlier array instead of a new copy.
    """
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be {BLOB_FORM}, got a {type(blob).__name__}")
    if blob.keys() != {"shape", "data"}:
        raise ValueError(f"{where} must be {BLOB_FORM}, got keys {sorted(blob)}")
    shape, data = blob["shape"], blob["data"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: shape must be a list of non-negative ints, got {shape!r}")
    if not isinstance(data, str):
        raise ValueError(f"{where}: data must be a base64 string, got {type(data).__name__}")
    key = (data, *shape)
    if shared is not None and key in shared:
        return shared[key]
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:
        raise ValueError(f"{where}: data is not strict base64 ({e})") from None
    nbytes = 8 * math.prod(shape)
    if len(raw) != nbytes:
        raise ValueError(f"{where}: data holds {len(raw)} bytes but shape {shape} needs {nbytes}")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} contains non-finite values")
    if shared is not None:
        shared[key] = arr
    return arr


def save_dataset(data: PairedDataset, path) -> None:
    """Write one JSON object per record and line.

    Its keys are ``pair_id``, ``image_id``, ``caption_tokens`` and the two
    feature sequences ``image_features`` and ``caption_features``, each as
    an ``_encode`` blob ``{"shape": [L, d], "data": <base64 of
    little-endian float64>}``; the module docstring states the rules.
    """
    with open(path, "w") as fh:
        for r in data.records:
            fh.write(json.dumps({
                "pair_id": r.pair_id,
                "image_id": r.image_id,
                "image_features": _encode(r.image_features),
                "caption_tokens": r.caption_tokens,
                "caption_features": _encode(r.caption_features),
            }) + "\n")


def _validate_record(raw: dict, line_no: int, max_seq_len: int, widths: dict[str, int],
                     images: dict) -> PairedRecord:
    """One record from its parsed JSON line.

    ``widths`` holds the feature widths of the first record and is filled
    by it; ``images`` maps image blobs already decoded to their arrays.
    """
    pair_id = raw.get("pair_id") if isinstance(raw, dict) else None
    if not isinstance(pair_id, str) or not pair_id:
        raise ValueError(f"line {line_no}: record has no pair_id")
    for key in ("image_id", "image_features", "caption_tokens", "caption_features"):
        if key not in raw:
            raise ValueError(f"record {pair_id!r}: missing field {key!r}")
    arrays = {}
    for name, shared in (("image_features", images), ("caption_features", None)):
        where = f"record {pair_id!r}: {name}"
        arr = _decode(raw[name], where, shared)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"{where} must be a nonempty 2-D array, got shape {list(arr.shape)}")
        if arr.shape[0] > max_seq_len:
            raise ValueError(f"{where} longer than max_seq_len={max_seq_len}")
        width = widths.setdefault(name, arr.shape[1])
        if arr.shape[1] != width:
            raise ValueError(f"{where} has width {arr.shape[1]} but the first record's has {width}")
        arrays[name] = arr
    tokens = raw["caption_tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"record {pair_id!r}: caption_tokens must be a list of strings")
    return PairedRecord(pair_id, str(raw["image_id"]), arrays["image_features"], tokens,
                        arrays["caption_features"])


def load_dataset(path, max_seq_len: int = 64) -> PairedDataset:
    """Read and validate a JSONL dataset written by ``save_dataset``.

    Each line holds one record whose feature fields are ``{"shape": [L,
    d], "data": <base64 of little-endian float64>}`` blobs; nested lists
    are rejected. Errors name the line, or the record and the field.
    Records whose image blobs are identical share one image array, which
    is read-only by convention.
    """
    records: list[PairedRecord] = []
    seen: set[str] = set()
    widths: dict[str, int] = {}
    images: dict = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"parse error at line {line_no}: {e.msg}") from e
            r = _validate_record(raw, line_no, max_seq_len, widths, images)
            if r.pair_id in seen:
                raise ValueError(f"record {r.pair_id!r}: duplicate pair_id")
            seen.add(r.pair_id)
            records.append(r)
    if not records:
        raise ValueError(f"dataset {path} has no records")
    return PairedDataset(records)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

class AlignmentModel:
    """Both branches' parameters and forward passes.

    The visual aggregator is shared between the instance embedding and
    the concept-branch query; the textual side uses separate aggregators
    for the two roles. Concept vectors and the thresholded adjacency are
    frozen constants; only the convolution weight, the two query
    matrices, and the classifier train on the concept side.
    """

    def __init__(self, cfg: TrainConfig, d_img: int, d_txt: int,
                 vocab: kn.ConceptVocabulary, adjacency: np.ndarray):
        rng = rng_from_seed(cfg.seed, 11)
        f = cfg.embed_dim
        self.cfg = cfg
        self.d_img = d_img
        self.d_txt = d_txt
        self.vocab = vocab
        self.adjacency = np.asarray(adjacency, dtype=np.int64)
        self.vis_agg = FeatureAggregator(d_img, f, cfg.d_p, cfg.decoder_hidden, rng)
        self.txt_agg = FeatureAggregator(d_txt, f, cfg.d_p, cfg.decoder_hidden, rng)
        self.txt_concept_agg = FeatureAggregator(d_txt, f, cfg.d_p, cfg.decoder_hidden, rng)
        if d_img == d_txt:
            # symmetric start: both modalities leave the gate with the same
            # encoder, mirroring how pretrained features arrive pre-aligned
            for k, m in self.vis_agg.p.items():
                self.txt_agg.p[k] = Matrix(m.value)
                self.txt_concept_agg.p[k] = Matrix(m.value)
        self.query_head = kn.ConceptQueryHead(f, cfg.concept_smoothness)
        d_c = vocab.init_embeddings.shape[1]
        self.extra: dict[str, Matrix] = {
            "w_sc": Matrix(rng.standard_normal((d_c, f)) / np.sqrt(d_c)),
            "classifier": Matrix(0.01 * rng.standard_normal((cfg.k_clusters, f))),
        }
        self.groups: dict[str, dict[str, Matrix]] = {
            "vis": self.vis_agg.p,
            "txt": self.txt_agg.p,
            "txtc": self.txt_concept_agg.p,
            "query": self.query_head.p,
            "extra": self.extra,
        }
        self.encoder_pair = EncoderPair({"vis": self.vis_agg.p, "txt": self.txt_agg.p})

    def param_items(self):
        return named_params(self.groups)

    def set_param(self, name: str, value: Matrix) -> None:
        prefix, key = name.split(".", 1)
        self.groups[prefix][key] = value

    def embed_images(self, seqs, momentum: bool = False) -> Matrix:
        params = self.encoder_pair.momentum_group("vis") if momentum else None
        return self.vis_agg.aggregate_batch(seqs, params=params)

    def embed_captions(self, seqs, momentum: bool = False) -> Matrix:
        params = self.encoder_pair.momentum_group("txt") if momentum else None
        return self.txt_agg.aggregate_batch(seqs, params=params)

    def embed_captions_concept(self, seqs) -> Matrix:
        return self.txt_concept_agg.aggregate_batch(seqs)

    def concept_basis(self) -> Matrix:
        return kn.gcn_forward(self.vocab.init_embeddings, self.adjacency, self.extra["w_sc"])

    def concept_embed(self, query: Matrix, basis: Matrix, modality: str):
        return kn.concept_query(self.query_head, query, basis, modality)


@dataclass
class TrainState:
    """Everything training accumulates: parameters, mirrors, queues, prototypes."""

    config: TrainConfig
    model: AlignmentModel
    adam: dict[str, AdamState]
    bank_v: MemoryBank
    bank_w: MemoryBank
    prototypes: PrototypeState | None = None
    epochs_run: int = 0
    best: dict | None = None


def build_state(cfg: TrainConfig, data: PairedDataset) -> TrainState:
    """Initialize model, optimizer states, and queues from a training set."""
    cfg.validate()
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    d_img = data.records[0].image_features.shape[1]
    d_txt = data.records[0].caption_features.shape[1]
    corpus = data.corpus()
    stop = kn.DEFAULT_STOPLIST
    available = len({t for cap in corpus for t in cap if t not in stop})
    if available < 1:
        raise ValueError("no non-stop tokens available for the concept vocabulary")
    vocab = kn.build_vocabulary(corpus, min(cfg.concepts, available), stop,
                                embed_dim=cfg.embed_dim, seed=cfg.seed)
    stats = kn.build_cooccurrence(corpus, vocab)
    adjacency = kn.binarize(stats.conditional, cfg.eps_t)
    model = AlignmentModel(cfg, d_img, d_txt, vocab, adjacency)
    adam = {name: AdamState(m.rows, m.cols, cfg.lr) for name, m in model.param_items()}
    return TrainState(cfg, model, adam,
                      MemoryBank(cfg.bank_capacity, cfg.embed_dim),
                      MemoryBank(cfg.bank_capacity, cfg.embed_dim))


# ---------------------------------------------------------------------------
# losses for one batch
# ---------------------------------------------------------------------------

def _diversities(cfg: TrainConfig, sim: SimilarityMatrix):
    """Diversity weights of both directions: rows as anchors, then columns."""
    return (obj._estimate(sim, cfg.diversity_estimator, cfg.eps_div),
            obj._estimate(sim.transposed(), cfg.diversity_estimator, cfg.eps_div))


def _instance_loss(cfg: TrainConfig, sim: SimilarityMatrix, div) -> Matrix:
    if cfg.instance_loss == "triplet":
        return obj.triplet_baseline_loss(sim, cfg.triplet_margin)
    if cfg.instance_loss == "dcl_i":
        return obj.dcl_i_loss(sim, cfg.mu, cfg.gamma)
    return obj.dcl_loss(sim, *div, cfg.mu, cfg.gamma)


def batch_losses(state: TrainState, records: list[PairedRecord],
                 labels: np.ndarray | None) -> tuple[obj.LossReport, Matrix, Matrix]:
    """Forward both branches on one batch; returns the report and momentum embeddings."""
    cfg = state.config
    model = state.model
    img_seqs = [r.image_features for r in records]
    cap_seqs = [r.caption_features for r in records]

    v_inst = model.embed_images(img_seqs)
    w_inst = model.embed_captions(cap_seqs)
    v_mom = model.embed_images(img_seqs, momentum=True).detach()
    w_mom = model.embed_captions(cap_seqs, momentum=True).detach()

    sim = obj.cosine_matrix(v_inst, w_inst)
    # DCL and the memory loss share one diversity estimate; both queues fill together
    memory_on = cfg.use_memory_loss and len(state.bank_v) >= cfg.batch_size
    div = _diversities(cfg, sim) if cfg.instance_loss == "dcl" or memory_on else None
    instance = _instance_loss(cfg, sim, div)

    memory = None
    if memory_on:
        memory = obj.m_dcl_loss(v_inst, w_inst, v_mom.value, w_mom.value,
                                state.bank_v, state.bank_w, *div, cfg.mu, cfg.gamma,
                                estimator=cfg.diversity_estimator, eps=cfg.eps_div)

    concept = None
    pgc = None
    if cfg.use_concept_losses:
        basis = model.concept_basis()
        v_concept, _ = model.concept_embed(v_inst, basis, "visual")
        w_query = model.embed_captions_concept(cap_seqs)
        w_concept, _ = model.concept_embed(w_query, basis, "textual")
        concept_sim = obj.cosine_matrix(v_concept, w_concept)
        concept = obj.dcl_loss(concept_sim, *_diversities(cfg, concept_sim), cfg.mu, cfg.gamma)
        if labels is not None:
            pgc = obj.pgc_loss(v_concept, w_concept, model.extra["classifier"], labels)

    report = obj.total_loss(instance, memory, concept, pgc, cfg.lambda_weight)
    return report, v_mom, w_mom


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _unique_images(records: list[PairedRecord]):
    order: list[str] = []
    index: dict[str, int] = {}
    seqs = []
    for r in records:
        if r.image_id not in index:
            index[r.image_id] = len(order)
            order.append(r.image_id)
            seqs.append(r.image_features)
    caption_image = np.array([index[r.image_id] for r in records], dtype=np.int64)
    return order, seqs, caption_image


def _embed_chunked(embed_fn, seqs, chunk: int = 128) -> np.ndarray:
    parts = [embed_fn(seqs[i:i + chunk]).value for i in range(0, len(seqs), chunk)]
    return np.vstack(parts)


def _instance_sums(state: TrainState, records: list[PairedRecord]) -> np.ndarray:
    """v + w per record from the main encoders, for prototype clustering."""
    _, img_seqs, caption_image = _unique_images(records)
    v = _embed_chunked(state.model.embed_images, img_seqs)
    w = _embed_chunked(state.model.embed_captions, [r.caption_features for r in records])
    return v[caption_image] + w


def _snapshot(state: TrainState) -> dict[str, np.ndarray]:
    return {name: m.value.copy() for name, m in state.model.param_items()}


def _align_cluster_ids(new: PrototypeState, prev_centroids: np.ndarray) -> PrototypeState:
    """Relabel clusters to match the nearest previous centroids.

    Cluster ids are otherwise arbitrary per run, which would force the
    label classifier to relearn its output mapping after every epoch's
    reclustering. Greedy nearest-pair matching keeps ids stable.
    """
    k = new.k
    if prev_centroids.shape != new.centroids.shape:
        return new
    dists = ((new.centroids[:, None, :] - prev_centroids[None, :, :]) ** 2).sum(axis=2)
    assignment = np.full(k, -1, dtype=np.int64)
    used_new, used_prev = set(), set()
    flat_order = np.argsort(dists, axis=None, kind="stable")
    for flat in flat_order:
        i, j = divmod(int(flat), k)
        if i in used_new or j in used_prev:
            continue
        assignment[i] = j
        used_new.add(i)
        used_prev.add(j)
        if len(used_new) == k:
            break
    remaining = sorted(set(range(k)) - used_prev)
    for i in range(k):
        if assignment[i] < 0:
            assignment[i] = remaining.pop(0)
    centroids = np.empty_like(new.centroids)
    centroids[assignment] = new.centroids
    labels = assignment[new.labels]
    return PrototypeState(k, centroids, labels, new.inertia, new.inertia_path)


def train(cfg: TrainConfig, data: PairedDataset,
          val_data: PairedDataset | None = None) -> tuple[TrainState, list[dict]]:
    """Run the full two-branch loop; returns the final state and per-epoch rows.

    Per epoch: recluster prototypes from the summed instance embeddings,
    shuffle caption records, and per batch compute all enabled losses,
    take one Adam step, move the momentum mirror, and enqueue the
    momentum embeddings. The memory loss stays off until both queues hold
    at least one full batch. Evaluates on ``val_data`` every epoch and
    keeps the best-rsum parameter snapshot. A ``NonFiniteError`` becomes a
    ``RuntimeError`` that names the epoch and the batch or the clustering.
    """
    state = build_state(cfg, data)
    rows: list[dict] = []
    drop_at = cfg.lr_drop_epoch if cfg.lr_drop_epoch is not None else max(cfg.epochs // 2, 1)
    shuffle_rng = rng_from_seed(cfg.seed, 12)

    for epoch in range(cfg.epochs):
        lr = cfg.lr * (cfg.lr_drop_factor if epoch >= drop_at else 1.0)
        for adam_state in state.adam.values():
            adam_state.lr = lr

        labels_all = None
        if cfg.use_concept_losses:
            try:
                points = _instance_sums(state, data.records)
            except nm.NonFiniteError as e:
                raise RuntimeError(f"non-finite value at epoch {epoch}, clustering: {e}") from e
            k_eff = min(cfg.k_clusters, len(data))
            fresh = obj.kmeans_cluster(points, k_eff, seed=cfg.seed, n_init=4)
            if state.prototypes is not None and state.prototypes.k == k_eff:
                fresh = _align_cluster_ids(fresh, state.prototypes.centroids)
            state.prototypes = fresh
            labels_all = state.prototypes.labels

        order = shuffle_rng.permutation(len(data))
        sums = {"l_dcl_i": 0.0, "l_mdcl": 0.0, "l_dcl_c": 0.0, "l_pgc": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            records = [data.records[i] for i in batch_idx]
            labels = labels_all[batch_idx] if labels_all is not None else None
            try:
                report, v_mom, w_mom = batch_losses(state, records, labels)
                backward(report.total)
            except nm.NonFiniteError as e:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: {e}") from e
            for name, param in list(state.model.param_items()):
                grad = param.grad if param.grad is not None else np.zeros_like(param.value)
                state.model.set_param(name, adam_step(state.adam[name], param, grad))
            state.model.encoder_pair.momentum_update(cfg.momentum)
            state.bank_v.enqueue(v_mom.value)
            state.bank_w.enqueue(w_mom.value)
            for key, value in (("l_dcl_i", report.l_dcl_i), ("l_mdcl", report.l_mdcl),
                               ("l_dcl_c", report.l_dcl_c), ("l_pgc", report.l_pgc),
                               ("total", report.total.item())):
                sums[key] += value
            n_batches += 1

        row = {"epoch": epoch}
        row.update({k: v / max(n_batches, 1) for k, v in sums.items()})
        if val_data is not None:
            result = evaluate(state, val_data, cfg.beta)
            row.update(result.as_row())
            if state.best is None or result.rsum > state.best["rsum"]:
                state.best = {"rsum": result.rsum, "epoch": epoch, "params": _snapshot(state)}
        else:
            row.update({k: float("nan") for k in
                        ("r1_t", "r5_t", "r10_t", "r1_i", "r5_i", "r10_i", "rsum")})
        rows.append(row)
        state.epochs_run = epoch + 1
    return state, rows


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class StackedScores:
    """The score matrix ``left @ right.T``, formed one column block at a time.

    Indexing as ``scores[:, lo:hi]`` returns that block as one matmul,
    so ``recalls_from_similarity`` can rank from the factors without the
    dense [n_left x n_right] product. Every read of a block forms it the
    same way, so both ranking passes see the same scores.
    """

    ndim = 2

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right
        self.shape = (left.shape[0], right.shape[0])
        self.size = self.shape[0] * self.shape[1]

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        return self.left[rows] @ self.right[cols].T


def _count_ahead(block: np.ndarray, target: np.ndarray, lower: np.ndarray, axis: int) -> np.ndarray:
    """Cells of ``block`` ranked ahead of ``target``, counted along ``axis``.

    A cell is ahead when it scores above the target, or equal to it with
    ``lower`` set (a lower index than the target's own). For a target t
    above -inf that is one comparison per cell: s > nextafter(t, -inf)
    where ``lower`` is set and s > t elsewhere. nextafter(-inf, -inf) is
    -inf, so the lower-index ties of a -inf target are counted apart. A
    NaN cell is never ahead.
    """
    threshold = np.where(lower, np.nextafter(target, -np.inf), target)
    ahead = np.count_nonzero(block > threshold, axis=axis)
    floor = np.isneginf(target)
    if floor.any():
        ahead += np.count_nonzero(lower & floor & (block == -np.inf), axis=axis)
    return ahead


def recalls_from_similarity(scores: np.ndarray | StackedScores,
                            caption_image: np.ndarray) -> EvalResult:
    """Recall@{1,5,10} both ways from a [n_images x n_captions] score matrix.

    ``caption_image[j]`` is the row index of caption j's ground-truth
    image. Ties rank the lower candidate index first, so a rank is
    counted rather than sorted: rank = #(s > s_gt) + #(s == s_gt and
    idx < gt). Text to image ranks caption j's image within column j.
    Image to text ranks an image by its best caption, the one with its
    highest score and the lowest index among ties, within the image's
    row; an image with no caption never hits. A NaN candidate never
    ranks ahead, and a NaN ground-truth score is an error.

    ``scores`` is a dense array or a ``StackedScores``; either way it is
    read only as column blocks ``scores[:, lo:hi]`` of ``RANK_BLOCK``
    captions, in two passes. The first takes each caption's ground-truth
    score from its block and counts the text-to-image ranks; the second
    counts the image-to-text ranks against each image's best caption.
    Extra memory is O(n_images x RANK_BLOCK) in total.
    """
    if not isinstance(scores, StackedScores):
        scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a 2-D [n_images x n_captions] matrix, got {scores.ndim}-D")
    caption_image = np.asarray(caption_image, dtype=np.int64)
    n_img, n_cap = scores.shape
    if caption_image.shape != (n_cap,):
        raise ValueError("need one ground-truth image per caption column")
    bad = np.flatnonzero((caption_image < 0) | (caption_image >= n_img))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"caption column {j} names image {caption_image[j]}, outside [0, {n_img})")

    img_index = np.arange(n_img)[:, None]
    cap_index = np.arange(n_cap)
    blocks = [(lo, min(lo + RANK_BLOCK, n_cap)) for lo in range(0, n_cap, RANK_BLOCK)]
    gt_score = np.empty(n_cap)
    image_rank = np.empty(n_cap, dtype=np.int64)
    for lo, hi in blocks:
        block, gt_img = scores[:, lo:hi], caption_image[lo:hi]
        gt = block[gt_img, cap_index[:hi - lo]]
        nan = np.flatnonzero(np.isnan(gt))
        if nan.size:
            raise ValueError(f"caption column {lo + int(nan[0])} has a NaN ground-truth score")
        gt_score[lo:hi] = gt
        image_rank[lo:hi] = _count_ahead(block, gt, img_index < gt_img, axis=0)

    best_score = np.full(n_img, -np.inf)
    np.maximum.at(best_score, caption_image, gt_score)
    is_best = gt_score == best_score[caption_image]
    best_cap = np.full(n_img, n_cap)
    np.minimum.at(best_cap, caption_image[is_best], cap_index[is_best])

    best, best_col = best_score[:, None], best_cap[:, None]
    text_rank = np.zeros(n_img, dtype=np.int64)
    for lo, hi in blocks:
        text_rank += _count_ahead(scores[:, lo:hi], best, cap_index[lo:hi] < best_col, axis=1)

    has_caption = best_cap < n_cap
    text = [100.0 * np.count_nonzero(has_caption & (text_rank < k)) / n_img for k in (1, 5, 10)]
    image = [100.0 * np.count_nonzero(image_rank < k) / n_cap for k in (1, 5, 10)]
    return EvalResult(*text, *image)


def embed_for_retrieval(state: TrainState, data: PairedDataset):
    """Instance and concept embeddings for every unique image and caption."""
    model = state.model
    image_ids, img_seqs, caption_image = _unique_images(data.records)
    cap_seqs = [r.caption_features for r in data.records]
    v = _embed_chunked(model.embed_images, img_seqs)
    w = _embed_chunked(model.embed_captions, cap_seqs)
    basis = model.concept_basis()
    # the visual concept query is the instance embedding, chunk for chunk
    vc = _embed_chunked(lambda rows: model.concept_embed(
        Matrix(rows), basis, "visual")[0], v)
    wc = _embed_chunked(lambda s: model.concept_embed(
        model.embed_captions_concept(s), basis, "textual")[0], cap_seqs)
    return image_ids, caption_image, v, w, vc, wc


def evaluate(state: TrainState, data: PairedDataset, beta: float | None = None) -> EvalResult:
    """Retrieval recalls under the beta-blend of both branches' cosine similarities.

    The blend is scored as ``L @ R.T`` with ``L = [beta*v | (1-beta)*vc]``
    and ``R = [w | wc]``, which differs from ``beta*(v @ w.T) +
    (1-beta)*(vc @ wc.T)`` only in the last bits. ``recalls_from_similarity``
    forms it one ``RANK_BLOCK``-caption block at a time, in two passes,
    so extra memory is O(n_images x RANK_BLOCK) besides the embeddings.
    """
    if len(data) == 0:
        raise ValueError("evaluation split is empty")
    beta = state.config.beta if beta is None else beta
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    _, caption_image, v, w, vc, wc = embed_for_retrieval(state, data)
    scores = StackedScores(np.hstack([beta * v, (1.0 - beta) * vc]), np.hstack([w, wc]))
    return recalls_from_similarity(scores, caption_image)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, state: TrainState, which: str = "best") -> None:
    """Serialize parameters, momentum mirror, config, and concept tokens and adjacency.

    Every array is an ``_encode`` blob; the concept vectors are rebuilt from
    ``config``. ``which="best"`` uses the best-validation snapshot when one exists,
    otherwise the current parameters.
    """
    if which not in ("best", "final"):
        raise ValueError("which must be 'best' or 'final'")
    params = {name: m.value for name, m in state.model.param_items()}
    epoch = state.epochs_run
    if which == "best" and state.best is not None:
        params = state.best["params"]
        epoch = state.best["epoch"]
    blob = {
        "version": CHECKPOINT_VERSION,
        "epoch": epoch,
        "config": asdict(state.config),
        "dims": {"d_img": state.model.d_img, "d_txt": state.model.d_txt},
        "params": {name: _encode(arr) for name, arr in params.items()},
        "momentum": {name: _encode(arr) for name, arr in state.model.encoder_pair.momentum.items()},
        "concepts": {
            "tokens": state.model.vocab.concepts,
            "adjacency": _encode(state.model.adjacency),
        },
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


def _decode_section(section: dict, model_arrays: dict[str, np.ndarray], kind: str):
    """The arrays of one checkpoint section, which must name and shape exactly the model's."""
    missing = sorted(model_arrays.keys() - section.keys())
    if missing:
        raise ValueError(f"checkpoint {kind} {missing[0]!r}: missing from the file")
    out = {}
    for name, enc in section.items():
        where = f"checkpoint {kind} {name!r}"
        if name not in model_arrays:
            raise ValueError(f"{where}: not a parameter of this model")
        arr = _decode(enc, where)
        if arr.shape != model_arrays[name].shape:
            raise ValueError(f"{where}: shape {list(arr.shape)} but the model's is "
                             f"{list(model_arrays[name].shape)}")
        out[name] = arr
    return out


def _entry(section: dict, kind: str, name: str, want: type):
    """``section[name]``, which must be a JSON value of type ``want``; errors name it."""
    where = f"checkpoint {kind} {name!r}"
    if name not in section:
        raise ValueError(f"{where}: missing from the file")
    if type(section[name]) is not want:
        raise ValueError(f"{where} must be of type {want.__name__}, got {type(section[name]).__name__}")
    return section[name]


def load_checkpoint(path) -> TrainState:
    """Rebuild a state that evaluates as the saved one did, bit for bit; errors name the entry."""
    with open(path) as fh:
        blob = json.load(fh)
    if type(blob) is not dict:
        raise ValueError(f"checkpoint: the top level must be an object, got {type(blob).__name__}")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {blob.get('version')!r}")
    for section, want in (("epoch", int), ("config", dict), ("dims", dict), ("params", dict),
                          ("momentum", dict), ("concepts", dict)):
        if section not in blob:
            raise ValueError(f"checkpoint: missing section {section!r}")
        _entry(blob, "section", section, want)
    cfg = TrainConfig.from_dict(blob["config"])
    dims = blob["dims"]
    for key in ("d_img", "d_txt"):
        if _entry(dims, "dims", key, int) < 1:
            raise ValueError(f"checkpoint dims {key!r} must be positive, got {dims[key]}")
    concepts = blob["concepts"]
    tokens = _entry(concepts, "concepts", "tokens", list)
    if not tokens or not all(type(t) is str for t in tokens):
        raise ValueError("checkpoint concepts 'tokens' must be a non-empty list of strings")
    where, g = "checkpoint concepts 'adjacency'", len(tokens)
    adjacency = _decode(_entry(concepts, "concepts", "adjacency", dict), where)
    if adjacency.shape != (g, g) or not np.isin(adjacency, (0.0, 1.0)).all():
        raise ValueError(f"{where} must be a [{g}, {g}] matrix of 0s and 1s for {g} tokens")
    vocab = kn.ConceptVocabulary(tokens, kn.concept_embeddings(g, cfg.embed_dim, cfg.seed))
    model = AlignmentModel(cfg, dims["d_img"], dims["d_txt"], vocab, adjacency)
    params = {name: m.value for name, m in model.param_items()}
    for name, arr in _decode_section(blob["params"], params, "params").items():
        model.set_param(name, Matrix(arr))
    model.encoder_pair.momentum = _decode_section(blob["momentum"], model.encoder_pair.momentum,
                                                  "momentum")
    adam = {name: AdamState(m.rows, m.cols, cfg.lr) for name, m in model.param_items()}
    state = TrainState(cfg, model, adam,
                       MemoryBank(cfg.bank_capacity, cfg.embed_dim),
                       MemoryBank(cfg.bank_capacity, cfg.embed_dim))
    state.epochs_run = blob["epoch"]
    return state
