"""End-to-end composition: tweets -> tensor -> latent -> clusters -> scores.

Representations
  uts       encode to one univariate series per user, cluster the series
  vec       encode to one length-L vector per user
  glob      summary statistics of the uts series (z-scored)
  glob_vec  those statistics concatenated with the vec encoding

The five named presets pair a representation with a clustering method;
everything else (features, epochs, seeds, eps) comes from PipelineConfig.
Each stage (prepare, _train_models, _encode, global_features, _cluster,
_label_and_score) is one function, called one at a time by the CLI steps
and chained only by run_pipeline_from_mts (with _make_points between):
run-all and every leg of both analyses are one call of it each. The
leave-one-botnet-out harness, lobo_run_from_mts, retrains on a reduced
population and scores the full one, which is the generalization question
that matters for detecting botnets that were never seen during training;
importance_run_from_mts reruns without one feature at a time. Each
analysis starts from the raw tensor that prepare builds from a tweet table.

Independent legs run side by side through legs.map_legs, in two places:
glob_vec's two encoders in _train_models, and scored_runs, which runs
the reruns of both analyses (lobo's base run plus one per bot class,
importance's full run plus one per left-out feature). A training leg that trained on every user also
encodes the tensor it trained on, so no serial _encode follows the legs.
Each leg is seeded on its own, so results are byte-identical to a one-CPU
run, which runs every leg in-process, at the same BLAS thread count: the
vec encoder's dense products change their last bits with it, and 57 of
the 342 artifacts tests/test_artifact_digests.py pins differ between one
and two OpenBLAS threads.

Stages let go of inputs they no longer read: _train_models drops the raw
tensor once it is normalized, so a caller that hands over its only
reference trains without it, as run-all and each lobo leg do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .autoencoder import (
    AutoencoderConfig,
    AutoencoderModel,
    TrainReport,
    encode,
    train,
)
from .clustering import (
    NOISE,
    ClusterAssignment,
    Dendrogram,
    cut_dendrogram,
    dbscan,
    distance_matrix,
    kdist_knee_eps,
    ward_agglomerative,
)
from .globalfeats import (
    GlobalFeatureVector,
    concat_features,
    extract_global_features,
    zscore_standardize,
)
from .ingest import GENUINE_CLASS, LabelTable, TweetTable
from .labeling import (
    MetricsReport,
    assign_labels_binary,
    assign_labels_multiclass,
    feature_importance,
    local_density_scores,
    prf_metrics,
)
from .legs import map_legs
from .mts import MtsTensor, apply_normalization, extract_mts, minmax_normalize

# The encoders each representation needs, in training order.
ENCODERS = {"uts": ("uts",), "vec": ("vec",), "glob": ("uts",), "glob_vec": ("uts", "vec")}
REPRESENTATIONS = tuple(ENCODERS)
CLUSTER_METHODS = ("dbscan", "ward")
TASKS = ("binary", "multiclass")

PRESETS: dict[str, dict[str, str]] = {
    "UTS_DBSCAN": {"representation": "uts", "cluster_method": "dbscan"},
    "UTS_Hier": {"representation": "uts", "cluster_method": "ward"},
    "Vec_Hier": {"representation": "vec", "cluster_method": "ward"},
    "Glob_Hier": {"representation": "glob", "cluster_method": "ward"},
    "Glob_Vec_Hier": {"representation": "glob_vec", "cluster_method": "ward"},
}


@dataclass
class PipelineConfig:
    representation: str = "uts"
    cluster_method: str = "ward"
    task: str = "binary"
    features: Optional[tuple[str, ...]] = None   # None or empty -> all tensor features
    # The training settings default as the encoder's own (see _ae_config).
    epochs: int = AutoencoderConfig.epochs
    learning_rate: Optional[float] = AutoencoderConfig.learning_rate   # None -> per variant
    latent_dim: int = AutoencoderConfig.latent_dim
    holdout_fraction: float = AutoencoderConfig.holdout_fraction
    clip_norm: float = AutoencoderConfig.clip_norm
    min_pts: int = 4
    eps: Optional[float] = None                  # None -> k-distance knee
    n_clusters: Optional[int] = None             # ward cut; None -> task default
    genuine_cluster: Optional[int] = None
    seed: int = AutoencoderConfig.seed

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")
        if self.cluster_method not in CLUSTER_METHODS:
            raise ValueError(f"cluster_method must be one of {CLUSTER_METHODS}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.min_pts < 2:
            raise ValueError(f"min_pts must be >= 2 so the knee heuristic has k >= 1")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError(f"n_clusters must be at least 1, got {self.n_clusters}")
        if self.genuine_cluster is not None and self.genuine_cluster < 1:
            raise ValueError(f"genuine_cluster must be at least 1, got {self.genuine_cluster}")
        if self.eps is not None and not self.eps >= 0.0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        for variant in ENCODERS[self.representation]:
            # epochs, learning_rate, holdout_fraction and latent_dim, by the encoder's rules
            _ae_config(self, variant)
        self.features = tuple(self.features or ()) or None
        if self.features and len(set(self.features)) != len(self.features):
            raise ValueError(f"features must not repeat a name, got {list(self.features)}")

    def to_dict(self) -> dict:
        return dict(asdict(self), features=list(self.features) if self.features else None)


def apply_preset(config: PipelineConfig, preset: str) -> PipelineConfig:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    return replace(config, **PRESETS[preset])


def config_hash(config: PipelineConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def derive_seed(seed: int, stream: int) -> int:
    """Stable child seed for an auxiliary random stream (second encoder,
    per-leg reruns) that will not collide with nearby base seeds."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Clustering:
    """A partition plus the choices that produced it. A binary two-way
    Ward cut also carries its polarity: the per-cluster local-density
    scores that name the genuine side (see assign_labels_binary), taken
    once from the distance matrix, which does not outlive _cluster."""

    assignment: ClusterAssignment
    eps: Optional[float] = None                  # DBSCAN radius used
    dendrogram: Optional[Dendrogram] = None
    polarity: Optional[list[float]] = None       # local-density score per cluster

    def report(self, config: PipelineConfig) -> dict:
        """The cluster_report.json payload of run-all and `cluster` alike."""
        doc = {
            "method": config.cluster_method,
            "n_clusters": self.assignment.n_clusters,
            "n_noise": int(np.sum(self.assignment.labels == NOISE)),
        }
        if self.dendrogram is None:
            doc.update(eps=self.eps, min_pts=config.min_pts)
        else:
            doc["cut_k"] = self.assignment.n_clusters
        if (scores := self.polarity) is not None:
            # The polarity rule's margin: genuine is the larger score.
            doc["polarity"] = {"local_density": scores,
                               "ratio": max(scores) / min(scores) if min(scores) > 0 else None}
        return doc


@dataclass
class PipelineResult:
    user_ids: tuple[str, ...]
    true_labels: np.ndarray
    pred_labels: np.ndarray
    clustering: Clustering
    metrics: MetricsReport
    models: dict[str, AutoencoderModel] = field(default_factory=dict)
    train_reports: dict[str, TrainReport] = field(default_factory=dict)
    latents: dict[str, np.ndarray] = field(default_factory=dict)
    # (raw statistics, clustering table) for the glob representations
    features: Optional[tuple[GlobalFeatureVector, GlobalFeatureVector]] = None


def truth_vector(labels: LabelTable, user_ids) -> np.ndarray:
    """Class ids in the given user order; every user must be labeled."""
    missing = [u for u in user_ids if u not in labels.labels]
    if missing:
        raise ValueError(f"{len(missing)} users lack labels, first: {missing[0]!r}")
    return np.asarray([labels.labels[u] for u in user_ids], dtype=np.int64)


def prepare(
    tweets: TweetTable,
    labels: Optional[LabelTable],
    config: PipelineConfig,
) -> tuple[MtsTensor, Optional[np.ndarray]]:
    """Tweet table -> raw daily tensor of the configured features, plus
    the truth vector in tensor row order when labels are given."""
    mts = _configured_features(config, extract_mts(tweets))
    true = None if labels is None else truth_vector(labels, mts.user_ids)
    return mts, true


def _configured_features(config: PipelineConfig, mts_raw: MtsTensor) -> MtsTensor:
    """The configured features of a raw tensor: all of them when unset."""
    return mts_raw if config.features is None else mts_raw.select_features(config.features)


def _ae_config(config: PipelineConfig, variant: str) -> AutoencoderConfig:
    """A variant's encoder settings. A second encoder (the vec one of
    glob_vec) trains from a derived seed, so the one pipeline seed pins
    both models."""
    stream = ENCODERS[config.representation].index(variant)
    return AutoencoderConfig(
        variant=variant,
        latent_dim=config.latent_dim,
        learning_rate=config.learning_rate,
        epochs=config.epochs,
        holdout_fraction=config.holdout_fraction,
        seed=derive_seed(config.seed, stream) if stream else config.seed,
        clip_norm=config.clip_norm,
    )


def _train_models(
    config: PipelineConfig,
    mts_raw: MtsTensor,
    encoded: bool = False,
) -> tuple[dict[str, AutoencoderModel], dict[str, TrainReport], dict[str, np.ndarray]]:
    """Min-max fit the configured features of a raw tensor (see
    _configured_features) and train the encoder(s) a representation needs;
    each model keeps the fitted statistics. The encoders share only
    the input, so they train side by side (see legs.map_legs). With
    encoded, each leg also returns its model's latent of the tensor it
    trained on, the one _encode would give: minmax_normalize's output is
    bitwise apply_normalization with the fitted statistics. Otherwise the
    latents are empty. The raw tensor is not read after its normalization,
    so a caller that passes its only reference (train and run-all do)
    frees it before training."""
    norm, params = minmax_normalize(_configured_features(config, mts_raw))
    del mts_raw

    def leg(ae_config: AutoencoderConfig):
        model, report = train(ae_config, norm, params)
        return model, report, encode(model, norm) if encoded else None

    variants = ENCODERS[config.representation]
    jobs = [(_ae_config(config, variant),) for variant in variants]
    models, reports, latents = {}, {}, {}
    for variant, (model, report, latent) in zip(variants, map_legs(leg, jobs)):
        models[variant], reports[variant] = model, report
        if encoded:
            latents[variant] = latent
    return models, reports, latents


def _encode(models: dict[str, AutoencoderModel], mts_raw: MtsTensor) -> dict[str, np.ndarray]:
    """Each model's latent of a raw tensor: the features the model trained
    on (its norm_params.feature_names), scaled with its own statistics, so
    users unseen in training get the training scale."""
    latents: dict[str, np.ndarray] = {}
    for variant, model in models.items():
        if (params := model.norm_params) is None:
            raise ValueError(f"{variant} model lacks normalization statistics")
        latents[variant] = encode(model, apply_normalization(
            mts_raw.select_features(params.feature_names), params))
    return latents


def global_features(
    config: PipelineConfig,
    latents: dict[str, np.ndarray],
    user_ids: tuple[str, ...],
) -> tuple[GlobalFeatureVector, GlobalFeatureVector]:
    """Summary statistics of the uts latent, raw and as the clustering
    table: z-scored, with the vec latent appended for glob_vec."""
    raw = extract_global_features(latents["uts"], user_ids=user_ids)
    table = zscore_standardize(raw)
    if config.representation == "glob_vec":
        table = concat_features(table, latents["vec"])
    return raw, table


def _make_points(
    config: PipelineConfig,
    latents: dict[str, np.ndarray],
    user_ids: tuple[str, ...],
) -> tuple[np.ndarray, Optional[tuple[GlobalFeatureVector, GlobalFeatureVector]]]:
    """The clustering matrix, plus the feature tables it came from."""
    if config.representation in ("uts", "vec"):
        return latents[config.representation], None
    tables = global_features(config, latents, user_ids)
    return tables[1].values, tables


def check_population(config: PipelineConfig, n_users: int,
                     n_classes: Optional[int]) -> Optional[int]:
    """Fail on a clustering setting that n_users users cannot meet, so an
    analysis fails before it trains: the k-distance knee (eps unset) needs
    at least min_pts users, and a Ward cut at most one cluster per user.
    Returns the Ward cut size: n_clusters, by default 2 for binary and
    n_classes for multiclass; None for DBSCAN, and for a multiclass cut
    at the class count when n_classes is None (not known, so unchecked)."""
    if config.cluster_method == "dbscan":
        if config.eps is None and n_users < config.min_pts:
            raise ValueError(f"min_pts={config.min_pts} needs at least {config.min_pts} users for "
                             f"the k-distance knee, got N={n_users}; set eps or lower min_pts")
        return None
    k = config.n_clusters
    if k is None and config.task == "multiclass" and n_classes is None:
        return None
    if k is None:
        k = 2 if config.task == "binary" else max(n_classes, 1)
    if k > n_users:
        raise ValueError(f"a Ward cut at n_clusters={k} needs at least {k} users, got N={n_users}")
    return k


def names_by_polarity(config: PipelineConfig) -> bool:
    """Whether a run's partition is named by its polarity scores (see
    assign_labels_binary): a binary Ward run without genuine_cluster."""
    return (config.task == "binary" and config.cluster_method == "ward"
            and config.genuine_cluster is None)


def check_scorable(config: PipelineConfig) -> None:
    """Fail on a setting no run can score, before anything trains: the
    polarity rule names the genuine side of a binary Ward cut at two
    clusters only, so another cut size needs genuine_cluster, and that
    must name a cluster of the cut."""
    if names_by_polarity(config) and config.n_clusters not in (None, 2):
        raise ValueError(f"polarity rule needs exactly 2 clusters, got {config.n_clusters}; "
                         "pass genuine_cluster explicitly")
    cut = config.n_clusters or 2
    if (config.task == "binary" and config.cluster_method == "ward"
            and (config.genuine_cluster or 0) > cut):
        raise ValueError(f"genuine_cluster {config.genuine_cluster} out of range for a binary "
                         f"Ward cut at {cut} clusters")


def _cluster(
    config: PipelineConfig,
    points: np.ndarray,
    user_ids: tuple[str, ...],
    n_classes: Optional[int],
) -> Clustering:
    """DBSCAN at the configured or knee eps, or a Ward cut at the size
    check_population gives. A binary two-way cut also gets its polarity
    scores at min_pts; this is the only place the N x N distance matrix
    lives."""
    k = check_population(config, len(user_ids), n_classes)
    dist = distance_matrix(points)
    if config.cluster_method == "dbscan":
        eps = config.eps
        if eps is None:
            eps, _curve = kdist_knee_eps(dist, config.min_pts - 1)
        return Clustering(dbscan(dist, eps, config.min_pts, user_ids=user_ids), eps=eps)
    dendro = ward_agglomerative(dist)
    assignment = cut_dendrogram(dendro, k, user_ids=user_ids)
    polarity = None
    if config.task == "binary" and k == 2:
        polarity = local_density_scores(assignment, dist, config.min_pts)
    return Clustering(assignment, dendrogram=dendro, polarity=polarity)


def _label_and_score(
    config: PipelineConfig,
    assignment: ClusterAssignment,
    polarity: Optional[list[float]],
    true_labels: np.ndarray,
    n_classes: int,
) -> tuple[np.ndarray, MetricsReport]:
    """Account labels and scores. A binary Ward partition is named by its
    polarity scores (Clustering.polarity) unless genuine_cluster is set
    (check_scorable refuses a cut with neither); other partitions read
    neither."""
    if config.task == "binary":
        truth = (true_labels != GENUINE_CLASS).astype(np.int64)
        pred = assign_labels_binary(assignment, polarity, config.genuine_cluster)
        return pred, prf_metrics(truth, pred, 2)
    pred = assign_labels_multiclass(assignment, true_labels)
    return pred, prf_metrics(true_labels, pred, n_classes)


def run_pipeline_from_mts(
    mts_raw: MtsTensor,
    true_labels: np.ndarray,
    n_classes: int,
    config: PipelineConfig,
    train_rows: Optional[np.ndarray] = None,
) -> PipelineResult:
    """Train, encode, cluster, label and score an already-extracted raw
    tensor. With train_rows, the encoders (and their min-max statistics)
    see only those rows' users, and every user is encoded, as in each
    leave-one-botnet-out leg."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if true_labels.shape != (mts_raw.n_users,):
        raise ValueError(f"true labels shape {true_labels.shape} != ({mts_raw.n_users},)")
    check_population(config, mts_raw.n_users, n_classes)
    check_scorable(config)
    user_ids = tuple(mts_raw.user_ids)
    # What training reads goes unnamed, so it is freed once normalized: the
    # user subset, or the raw tensor if the caller passed its only reference.
    if train_rows is None:
        models, reports, latents = _train_models(config, (mts_raw, mts_raw := None)[0],
                                                 encoded=True)
    else:
        models, reports, _ = _train_models(config, mts_raw.select_users(train_rows))
        latents = _encode(models, mts_raw)
    points, features = _make_points(config, latents, user_ids)
    clustering = _cluster(config, points, user_ids, n_classes)
    pred, metrics = _label_and_score(config, clustering.assignment, clustering.polarity,
                                     true_labels, n_classes)
    return PipelineResult(user_ids=user_ids, true_labels=true_labels, pred_labels=pred,
                          clustering=clustering, metrics=metrics, models=models,
                          train_reports=reports, latents=latents, features=features)


def scored_runs(mts_raw: MtsTensor, true: np.ndarray, n_classes: int, jobs) -> list[float]:
    """The weighted F1 of run_pipeline_from_mts on the raw tensor for each
    (config, train_rows) job, in job order, side by side (see legs.map_legs)."""

    def leg(config: PipelineConfig, rows: Optional[np.ndarray]) -> float:
        return run_pipeline_from_mts(mts_raw, true, n_classes, config, rows).metrics.weighted_f1

    return map_legs(leg, jobs)


def check_bot_classes(bot_classes: list[int]) -> None:
    """The classes lobo can leave out one at a time: two or more bot classes."""
    if len(bot_classes) < 2:
        raise ValueError(f"need at least 2 bot classes, got {bot_classes}")
    if GENUINE_CLASS in bot_classes:
        raise ValueError("cannot exclude the genuine class")


def lobo_run_from_mts(
    mts_raw: MtsTensor,
    true: np.ndarray,
    labels: LabelTable,
    config: PipelineConfig,
    bot_classes: Optional[list[int]] = None,
) -> dict:
    """Leave-one-botnet-out: for each bot class, retrain the encoder(s)
    without it (normalization statistics from the reduced set too), then
    encode, cluster, label and score the FULL population of the raw
    tensor, whose rows have the class ids in true. Returns the
    lobo_report.json payload: the base run's base_weighted_f1, the task,
    and under "excluded" each class id (as a string) with its leg's
    weighted_f1 and pct_change from the base.

    Each leg is one run_pipeline_from_mts call, from a seed derived per
    excluded class. Excluding a class with no members is the base run, so
    it is reported as exactly 0 change without retraining. The legs run
    side by side (see scored_runs); the report is a sequential run's.
    """
    if bot_classes is None:
        bot_classes = sorted(c for c in labels.supports() if c != GENUINE_CLASS)
    check_bot_classes(bot_classes)
    n_classes = labels.num_classes
    check_population(config, mts_raw.n_users, n_classes)

    jobs = {None: (config, None)}
    for cid in bot_classes:
        keep = np.flatnonzero(true != cid)
        if keep.size == mts_raw.n_users:
            continue
        if keep.size < 2:
            raise ValueError(f"excluding class {cid} leaves fewer than 2 users")
        jobs[cid] = (replace(config, seed=derive_seed(config.seed, cid)), keep)
    retrained = dict(zip(jobs, scored_runs(mts_raw, true, n_classes, jobs.values())))
    base_f1 = retrained.pop(None)
    if base_f1 == 0.0:
        raise ValueError("base weighted F1 is 0; percentage changes are undefined")
    excluded = {}
    for cid in bot_classes:
        f1 = retrained.get(cid, base_f1)
        excluded[str(cid)] = {"weighted_f1": f1, "pct_change": 100.0 * (f1 - base_f1) / base_f1}
    return {"base_weighted_f1": base_f1, "task": config.task, "excluded": excluded}


def importance_run_from_mts(
    mts_raw: MtsTensor,
    true: np.ndarray,
    n_classes: int,
    config: PipelineConfig,
) -> dict:
    """Leave-one-feature-out importance: run_pipeline_from_mts on the raw
    tensor with all of its features, and once without each one, side by
    side (see scored_runs). Returns the importance_report.json payload
    that labeling.feature_importance builds from those scores."""
    names = mts_raw.feature_names
    if len(names) < 2:
        raise ValueError("importance needs at least 2 features")
    subsets = [names] + [names[:i] + names[i + 1:] for i in range(len(names))]
    jobs = [(replace(config, features=subset), None) for subset in subsets]
    baseline, *scores = scored_runs(mts_raw, true, n_classes, jobs)
    return feature_importance(names, baseline, scores)
