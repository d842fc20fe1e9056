"""Synthetic roster generation with group-specific skill distributions.

Each group draws a latent ability u ~ Beta(alpha, beta) per student, bins
it at 0.25 / 0.5 / 0.75 into four levels, and maps the level to a raw-score
mean (1.15, 2.0, 3.0, 3.85 on a 0..4 scale). Every skill dimension is then
an independent Normal(mean, sqrt(0.1)) draw, divided by 4 and clamped to
[0, 1]. Skewing alpha/beta per group is what makes groups distributionally
unequal; the presets below range from near-identical to near-disjoint.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, make_instance
from .errors import ValidationError
from .rng import as_rng

BUCKET_EDGES = (0.25, 0.5, 0.75)
BUCKET_MEANS = (1.15, 2.0, 3.0, 3.85)
RAW_SCALE = 4.0
SKILL_NOISE_STD = math.sqrt(0.1)

# (alpha, beta) endpoints for the two anchor groups of each preset
PRESETS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "d1": ((6.0, 4.0), (6.0, 4.0)),
    "d2": ((8.0, 3.2), (7.0, 5.5)),
    "d3": ((7.5, 1.0), (1.0, 7.5)),
}


@dataclass(frozen=True)
class GroupGenSpec:
    """count students with latent ability Beta(alpha, beta)."""

    count: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("group count must be at least 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("beta shape parameters must be positive")


@dataclass(frozen=True)
class DatasetConfig:
    skill_dims: int
    groups: tuple[GroupGenSpec, ...]

    def __post_init__(self):
        if self.skill_dims < 1:
            raise ValidationError("skill_dims must be at least 1")
        if not self.groups:
            raise ValidationError("at least one group is required")


def bucket_distribution(alpha: float, beta: float) -> np.ndarray:
    """Probability mass of the four ability levels under Beta(alpha, beta).

    Ordered strongest level first: [0.75, 1], [0.5, 0.75), [0.25, 0.5),
    [0, 0.25).
    """
    if alpha <= 0 or beta <= 0:
        raise ValidationError("beta shape parameters must be positive")
    from scipy.stats import beta as beta_dist  # about 1 s to import
    cdf = beta_dist.cdf(np.array([0.0, *BUCKET_EDGES, 1.0]), alpha, beta)
    return np.diff(cdf)[::-1]


def generate_group(count: int, alpha: float, beta: float, skill_dims: int,
                   rng) -> np.ndarray:
    """(count, skill_dims) skill matrix for one group."""
    latent = rng.beta(alpha, beta, size=count)
    levels = np.searchsorted(np.asarray(BUCKET_EDGES), latent, side="right")
    means = np.asarray(BUCKET_MEANS)[levels]
    raw = rng.normal(means[:, None], SKILL_NOISE_STD, size=(count, skill_dims))
    return np.clip(raw / RAW_SCALE, 0.0, 1.0)


def generate_dataset(config: DatasetConfig, seed=0) -> Instance:
    """Instance whose students are grouped contiguously in config order."""
    rng = as_rng(seed)
    blocks = []
    group_ids = []
    for q, g in enumerate(config.groups):
        blocks.append(generate_group(g.count, g.alpha, g.beta,
                                     config.skill_dims, rng))
        group_ids.append(np.full(g.count, q, dtype=np.int64))
    return make_instance(np.vstack(blocks), np.concatenate(group_ids))


def preset_config(name: str, n_students: int, skill_dims: int = 2,
                  n_groups: int = 2) -> DatasetConfig:
    """Named difficulty preset, split over n_groups of near-equal size.

    The presets define shapes for two anchor groups. With more groups the
    shapes are interpolated linearly between the anchors, giving a spectrum
    from the first anchor's distribution to the second's. Group sizes differ
    by at most one; the first n_students mod n_groups groups get the extra
    student.
    """
    key = name.lower()
    if key not in PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    if n_groups < 1:
        raise ValidationError("n_groups must be at least 1")
    if n_students < n_groups:
        raise ValidationError("need at least one student per group")
    (a0, b0), (a1, b1) = PRESETS[key]
    base, extra = divmod(n_students, n_groups)
    groups = []
    for j in range(n_groups):
        t = j / (n_groups - 1) if n_groups > 1 else 0.0
        groups.append(GroupGenSpec(
            count=base + (1 if j < extra else 0),
            alpha=a0 + t * (a1 - a0),
            beta=b0 + t * (b1 - b0)))
    return DatasetConfig(skill_dims=skill_dims, groups=tuple(groups))


def save_roster(instance: Instance, path) -> None:
    """Write the roster CSV: student_id, group, skill_1..skill_k."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["student_id", "group"]
                        + [f"skill_{p + 1}" for p in range(instance.k)])
        for i in range(instance.n):
            writer.writerow(
                [instance.student_ids[i],
                 instance.group_labels[instance.groups[i]]]
                + [repr(float(v)) for v in instance.skills[i]])


def open_text(path) -> io.StringIO:
    """The UTF-8 text file at path (a leading byte-order mark is skipped),
    read whole and split into lines as open(path, newline="") splits them;
    undecodable bytes raise ValidationError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return io.StringIO(fh.read(), newline="")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_instance(path) -> Instance:
    """Parse a roster CSV back into an Instance.

    Group ids are assigned by first appearance of each label. Raises
    ValidationError with a line number on any malformed content.
    """
    reader = csv.reader(open_text(path))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty roster file") from None
    if len(header) < 3 or header[:2] != ["student_id", "group"]:
        raise ValidationError(
            f"{path}: header must start with student_id,group")
    k = len(header) - 2
    expected = [f"skill_{p + 1}" for p in range(k)]
    if header[2:] != expected:
        raise ValidationError(
            f"{path}: skill columns must be {','.join(expected)}")

    ids, labels, rows = [], [], []
    seen_ids: set[str] = set()
    label_order: dict[str, int] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != k + 2:
            raise ValidationError(
                f"{path}:{line_no}: expected {k + 2} fields, got {len(row)}")
        sid, label = row[0].strip(), row[1].strip()
        if not sid:
            raise ValidationError(f"{path}:{line_no}: empty student_id")
        if sid in seen_ids:
            raise ValidationError(
                f"{path}:{line_no}: duplicate student_id {sid!r}")
        if not label:
            raise ValidationError(f"{path}:{line_no}: empty group label")
        try:
            skills = [float(v) for v in row[2:]]
        except ValueError:
            raise ValidationError(
                f"{path}:{line_no}: non-numeric skill value") from None
        for v in skills:
            if not 0.0 <= v <= 1.0 or not math.isfinite(v):
                raise ValidationError(
                    f"{path}:{line_no}: skill values must lie in [0, 1]")
        if label not in label_order:
            label_order[label] = len(label_order)
        ids.append(sid)
        seen_ids.add(sid)
        labels.append(label_order[label])
        rows.append(skills)
    if len(ids) < 2:
        raise ValidationError(f"{path}: a roster needs at least two students")
    return make_instance(np.array(rows), np.array(labels, dtype=np.int64),
                         student_ids=tuple(ids),
                         group_labels=tuple(label_order))
