"""Task datasets: binary on-disk format, loading, synthetic generation.

A task is a directory holding a ``meta`` text file (``name=``, ``classes=``,
``h=``, ``w=``, ``c=`` lines) and three binary splits ``train.bin``,
``val.bin``, ``test.bin``. Each split starts with the magic bytes ``MTDS``
followed by little-endian u32 sample count, height, width and channels, then
one record per sample: h*w*c pixel bytes row-major plus a little-endian u16
label.

The synthetic generator builds families of classification tasks from noisy
class prototypes; related tasks share a configured fraction of prototypes so
cross-task transfer genuinely helps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

MAGIC = b"MTDS"
SPLITS = ("train", "val", "test")
# labels are stored as u16, so a task has at most this many classes
MAX_CLASSES = 1 << 16


class DatasetError(ValueError):
    pass


@dataclass
class TaskDataset:
    name: str
    num_classes: int
    h: int
    w: int
    c: int
    splits: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.splits[name]
        except KeyError:
            raise DatasetError(f"dataset {self.name!r} has no split {name!r}") from None


def _record_dtype(h: int, w: int, c: int) -> np.dtype:
    return np.dtype([("img", np.uint8, (h, w, c)), ("label", "<u2")])


def write_split(path: str, images: np.ndarray, labels: np.ndarray) -> None:
    n, h, w, c = images.shape
    outside = labels[(labels < 0) | (labels >= MAX_CLASSES)]
    if outside.size:
        raise DatasetError(f"{path}: label {outside[0]} does not fit the u16 label field "
                           f"(0..{MAX_CLASSES - 1})")
    records = np.empty(n, dtype=_record_dtype(h, w, c))
    records["img"] = images
    records["label"] = labels.astype("<u2")
    header = np.array([n, h, w, c], dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(records.tobytes())


def read_split(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DatasetError(f"{path}: bad magic bytes")
    if len(blob) < 20:
        raise DatasetError(f"{path}: header has {len(blob)} of its 20 bytes")
    n, h, w, c = (int(v) for v in np.frombuffer(blob[4:20], dtype="<u4"))
    record = _record_dtype(h, w, c)
    found, stray = divmod(len(blob) - 20, record.itemsize)
    if found != n or stray:
        raise DatasetError(f"{path}: expected {n} samples, found {found}"
                           + (f" and {stray} stray bytes" if stray else ""))
    records = np.frombuffer(blob, dtype=record, offset=20)
    return records["img"].copy(), records["label"].astype(np.int64)


def write_task_dataset(dataset: TaskDataset, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    meta = (f"name={dataset.name}\nclasses={dataset.num_classes}\n"
            f"h={dataset.h}\nw={dataset.w}\nc={dataset.c}\n")
    with open(os.path.join(out_dir, "meta"), "w", encoding="utf-8") as fh:
        fh.write(meta)
    for split in SPLITS:
        images, labels = dataset.split(split)
        write_split(os.path.join(out_dir, f"{split}.bin"), images, labels)


def read_task_meta(path: str) -> TaskDataset:
    """The task directory's ``meta`` file as a dataset with no splits loaded."""
    meta_path = os.path.join(path, "meta")
    fields = {}
    with open(meta_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key] = value
    for key in ("name", "classes", "h", "w", "c"):
        if key not in fields:
            raise DatasetError(f"{meta_path}: missing {key}=")
    name = fields["name"]
    if not name or any(ch.isspace() for ch in name):
        raise DatasetError(f"{meta_path}: task name must be whitespace-free")
    dims = []
    for key in ("classes", "h", "w", "c"):
        try:
            dims.append(int(fields[key]))
        except ValueError:
            raise DatasetError(
                f"{meta_path}: {key}= is not an integer: {fields[key]!r}") from None
        if dims[-1] < 1:
            raise DatasetError(f"{meta_path}: {key}= must be at least 1, got {dims[-1]}")
    if dims[0] > MAX_CLASSES:
        raise DatasetError(f"{meta_path}: classes= must be at most {MAX_CLASSES}, got {dims[0]}")
    return TaskDataset(name, *dims)


def load_task_dir(path: str) -> TaskDataset:
    dataset = read_task_meta(path)
    for split in SPLITS:
        images, labels = read_split(os.path.join(path, f"{split}.bin"))
        if images.shape[1:] != (dataset.h, dataset.w, dataset.c):
            raise DatasetError(f"{path}/{split}.bin dims disagree with meta")
        if labels.size and labels.max() >= dataset.num_classes:
            raise DatasetError(f"{path}/{split}.bin has labels out of range")
        dataset.splits[split] = (images, labels)
    return dataset


def scan_task_dirs(root: str) -> dict[str, str]:
    """Map task name to directory for every dataset directly under ``root``,
    reading only each ``meta`` file; two directories declaring the same task
    name are rejected."""
    paths = {}
    for entry in sorted(os.listdir(root)):
        full = os.path.join(root, entry)
        if os.path.isdir(full) and os.path.exists(os.path.join(full, "meta")):
            name = read_task_meta(full).name
            if name in paths:
                raise DatasetError(f"duplicate task name {name!r} under {root}")
            paths[name] = full
    if not paths:
        raise DatasetError(f"no task directories under {root}")
    return paths


def bilinear_taps(size, out: int):
    """Half-pixel-centered bilinear taps to ``out`` pixels, one row per source
    size: each output pixel's lower and upper source index, stacked on a
    leading axis of two, and its upper weight."""
    size = np.asarray(size)[..., None]
    pos = (np.arange(out) + 0.5) * (size / out) - 0.5
    low = np.clip(np.floor(pos).astype(int), 0, size - 1)
    return np.stack([low, np.minimum(low + 1, size - 1)]), np.clip(pos - low, 0.0, 1.0)


def bilinear_resample(images: np.ndarray, y_taps, x_taps) -> np.ndarray:
    """A float (n, h, w, c) batch at shared (one row) or per-image (n rows)
    ``bilinear_taps``: columns blend in every source row, then rows. Each
    gather takes whole pixels, then whole output rows, and each blend runs
    along a row's ``out_w * c`` values, never along the short channel axis."""
    n, h, w, c = images.shape
    (y, wy), (x, wx) = y_taps, x_taps
    pixels = images.reshape(n * h * w, c)
    starts = np.arange(0, n * h * w, w).reshape(n, h, 1)
    rows = blend(*(np.take(pixels, starts + tap[:, None, :], axis=0).reshape(n, h, -1)
                   for tap in x), np.repeat(wx, c, axis=-1)[..., None, :])
    first = np.arange(0, n * h, h)[:, None]
    out = blend(*(np.take(rows.reshape(n * h, -1), first + tap, axis=0) for tap in y),
                wy[..., None])
    return out.reshape(n, y.shape[-1], x.shape[-1], c)


def blend(a: np.ndarray, b: np.ndarray, weight) -> np.ndarray:
    """a * (1 - weight) + b * weight, computed in a's and b's memory."""
    a *= 1 - weight
    b *= weight
    a += b
    return a


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a (..., h, w, c) float image or batch of images with
    half-pixel-centered bilinear sampling."""
    *lead, h, w, c = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()
    out = bilinear_resample(image.reshape(-1, h, w, c), bilinear_taps([h], out_h),
                            bilinear_taps([w], out_w))
    return out.reshape(*lead, out_h, out_w, c)


# -- synthetic generation ------------------------------------------------------

_TASK_COUNTS = ("classes", "h", "w", "c", "train", "val", "test")
_TASK_FIELDS = {"noise": float, **dict.fromkeys(_TASK_COUNTS, int)}


@dataclass(frozen=True)
class TaskGenSpec:
    name: str
    classes: int
    h: int = 16
    w: int = 16
    c: int = 3
    train: int = 192
    val: int = 64
    test: int = 64
    noise: float = 0.06

    def __post_init__(self):
        for key in _TASK_COUNTS:
            if getattr(self, key) < 1:
                raise DatasetError(f"{key}= must be at least 1, got {getattr(self, key)}")
        if self.classes > MAX_CLASSES:
            raise DatasetError(f"classes= must be at most {MAX_CLASSES}, got {self.classes}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise DatasetError(f"noise= must be a finite number of at least 0, got {self.noise}")


@dataclass
class GenSpec:
    tasks: list[TaskGenSpec]
    relations: list[tuple[str, str, float]] = field(default_factory=list)


def parse_gen_spec(text: str) -> GenSpec:
    tasks: list[TaskGenSpec] = []
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "task":
                if len(parts) < 2:
                    raise DatasetError(f"malformed task line: {line!r}")
                fields = {"classes": 4}
                for token in parts[2:]:
                    key, _, value = token.partition("=")
                    if key not in _TASK_FIELDS:
                        raise DatasetError(f"unknown task field {key!r}")
                    try:
                        fields[key] = _TASK_FIELDS[key](value)
                    except ValueError:
                        raise DatasetError(f"bad value for {key}=: {value!r}") from None
                if parts[1] in {t.name for t in tasks}:
                    raise DatasetError(f"duplicate task name {parts[1]!r}")
                tasks.append(TaskGenSpec(name=parts[1], **fields))
            elif parts[0] == "relate":
                if len(parts) != 4 or not parts[3].startswith("share="):
                    raise DatasetError(f"malformed relate line: {line!r}")
                relations.append((parts[1], parts[2], float(parts[3][6:])))
            else:
                raise DatasetError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
    if not tasks:
        raise DatasetError("generation spec defines no tasks")
    names = {t.name for t in tasks}
    for a, b, share in relations:
        if a not in names or b not in names:
            raise DatasetError(f"relation references unknown task: {a} {b}")
        if not 0.0 <= share <= 1.0:
            raise DatasetError(f"share must be in [0, 1], got {share}")
    return GenSpec(tasks=tasks, relations=relations)


def load_gen_spec(path: str) -> GenSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gen_spec(fh.read())


def _prototype(rng: Rng, h: int, w: int, c: int) -> np.ndarray:
    """A smooth class signature: coarse random grid upsampled to full size."""
    coarse = 0.25 + 0.5 * rng.uniforms(4 * 4 * c).reshape(4, 4, c)
    return bilinear_resize(coarse, h, w)


def _sample_split(rng: Rng, protos: np.ndarray, count: int, noise: float):
    k, h, w, c = protos.shape
    labels = (rng.uniforms(count) * k).astype(np.int64)  # each one randint(k)
    noise_arr = rng.normals(count * h * w * c, 0.0, noise).reshape(count, h, w, c)
    images = np.clip(protos[labels] + noise_arr, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels


def generate_synthetic_tasks(spec: GenSpec, seed: int, out_dir: str) -> list[str]:
    """Write one MTDS directory per task; byte-identical for a fixed seed."""
    master = Rng(seed, "gen")
    protos: dict[str, np.ndarray] = {}
    for task in spec.tasks:
        task_rng = master.spawn(f"proto/{task.name}")
        protos[task.name] = np.stack(
            [_prototype(task_rng, task.h, task.w, task.c) for _ in range(task.classes)])
    by_name = {t.name: t for t in spec.tasks}
    for a, b, share in spec.relations:
        ta, tb = by_name[a], by_name[b]
        if (ta.h, ta.w, ta.c) != (tb.h, tb.w, tb.c):
            raise DatasetError(f"related tasks {a} and {b} must share image dims")
        n_shared = int(round(share * min(ta.classes, tb.classes)))
        protos[b][:n_shared] = protos[a][:n_shared]

    paths = []
    for task in spec.tasks:
        dataset = TaskDataset(name=task.name, num_classes=task.classes,
                              h=task.h, w=task.w, c=task.c)
        for split, count in (("train", task.train), ("val", task.val), ("test", task.test)):
            split_rng = master.spawn(f"split/{task.name}/{split}")
            dataset.splits[split] = _sample_split(split_rng, protos[task.name],
                                                  count, task.noise)
        path = os.path.join(out_dir, task.name)
        write_task_dataset(dataset, path)
        paths.append(path)
    return paths
