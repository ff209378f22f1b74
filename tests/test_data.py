import hashlib
import os

import numpy as np
import pytest

from evograft.data import (DatasetError, GenSpec, TaskGenSpec, bilinear_resize,
                           generate_synthetic_tasks, load_task_dir, parse_gen_spec,
                           read_split, read_task_meta, write_split)


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_sha(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = file_sha(full)
    return out


def test_split_round_trip(tmp_path):
    images = (np.arange(2 * 4 * 4 * 3) % 251).astype(np.uint8).reshape(2, 4, 4, 3)
    labels = np.array([3, 7], dtype=np.int64)
    path = tmp_path / "train.bin"
    write_split(str(path), images, labels)
    r_images, r_labels = read_split(str(path))
    assert np.array_equal(images, r_images)
    assert np.array_equal(labels, r_labels)
    # rewriting the same arrays is byte-identical
    first = file_sha(str(path))
    write_split(str(path), images, labels)
    assert file_sha(str(path)) == first


def test_truncated_split_names_the_file_and_the_counts(tmp_path):
    images = np.zeros((2, 4, 4, 3), dtype=np.uint8)
    path = tmp_path / "train.bin"
    write_split(str(path), images, np.array([0, 1]))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(DatasetError, match=r"train\.bin.*expected 2 samples, found 1\b"):
        read_split(str(path))
    path.write_bytes(blob[:12])
    with pytest.raises(DatasetError, match=r"train\.bin.*header"):
        read_split(str(path))


def test_non_integer_meta_field_names_the_file_and_the_field(tmp_path):
    good = {"name": "alpha", "classes": "4", "h": "8", "w": "8", "c": "3"}
    for field in ("classes", "h", "w", "c"):
        fields = dict(good, **{field: "abc"})
        (tmp_path / "meta").write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        with pytest.raises(DatasetError, match=rf"meta\b.*\b{field}=.*'abc'"):
            read_task_meta(str(tmp_path))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(DatasetError):
        read_split(str(path))


def test_generated_tasks_are_loadable_and_valid(tmp_path):
    spec = GenSpec(tasks=[TaskGenSpec(name="alpha", classes=4, train=64, val=32, test=32)])
    generate_synthetic_tasks(spec, seed=3, out_dir=str(tmp_path))
    ds = load_task_dir(str(tmp_path / "alpha"))
    assert ds.name == "alpha" and ds.num_classes == 4
    for split in ("train", "val", "test"):
        images, labels = ds.split(split)
        assert images.dtype == np.uint8
        assert labels.min() >= 0 and labels.max() < 4


def test_generation_is_byte_identical_for_fixed_seed(tmp_path):
    spec = GenSpec(tasks=[TaskGenSpec(name="alpha", classes=3, train=40, val=20, test=20),
                          TaskGenSpec(name="beta", classes=3, train=40, val=20, test=20)],
                   relations=[("alpha", "beta", 0.5)])
    generate_synthetic_tasks(spec, seed=9, out_dir=str(tmp_path / "one"))
    generate_synthetic_tasks(spec, seed=9, out_dir=str(tmp_path / "two"))
    assert tree_sha(tmp_path / "one") == tree_sha(tmp_path / "two")
    generate_synthetic_tasks(spec, seed=10, out_dir=str(tmp_path / "three"))
    assert tree_sha(tmp_path / "one") != tree_sha(tmp_path / "three")


def test_labels_are_uniform_within_multinomial_bounds(tmp_path):
    k, n = 4, 1200
    spec = GenSpec(tasks=[TaskGenSpec(name="uni", classes=k, train=n, val=16, test=16)])
    generate_synthetic_tasks(spec, seed=21, out_dir=str(tmp_path))
    _, labels = load_task_dir(str(tmp_path / "uni")).split("train")
    sigma = (n * (1 / k) * (1 - 1 / k)) ** 0.5
    for cls in range(k):
        assert abs(int((labels == cls).sum()) - n / k) < 3 * sigma


def test_related_pair_shares_class_prototypes(tmp_path):
    spec = GenSpec(tasks=[TaskGenSpec(name="a", classes=4, train=400, noise=0.05),
                          TaskGenSpec(name="b", classes=4, train=400, noise=0.05)],
                   relations=[("a", "b", 0.5)])
    generate_synthetic_tasks(spec, seed=33, out_dir=str(tmp_path))
    ds_a = load_task_dir(str(tmp_path / "a"))
    ds_b = load_task_dir(str(tmp_path / "b"))

    def class_means(ds):
        images, labels = ds.split("train")
        return [images[labels == c].mean(axis=0) / 255.0 for c in range(4)]

    means_a, means_b = class_means(ds_a), class_means(ds_b)
    shared = [np.abs(means_a[c] - means_b[c]).mean() for c in (0, 1)]
    private = [np.abs(means_a[c] - means_b[c]).mean() for c in (2, 3)]
    assert max(shared) < min(private) / 3.0


def test_gen_spec_parsing_and_validation():
    spec = parse_gen_spec("""
# two related tasks
task a classes=4 h=8 w=8 c=3 train=10 val=5 test=5 noise=0.1
task b classes=4
relate a b share=0.5
""")
    assert [t.name for t in spec.tasks] == ["a", "b"]
    assert spec.tasks[0].noise == 0.1
    assert spec.relations == [("a", "b", 0.5)]
    with pytest.raises(DatasetError):
        parse_gen_spec("task a classes=4\nrelate a missing share=0.5\n")
    with pytest.raises(DatasetError):
        parse_gen_spec("nonsense line\n")
    with pytest.raises(DatasetError):
        parse_gen_spec("")


def test_bilinear_resize_properties():
    rng = np.random.default_rng(0)
    image = rng.uniform(0.2, 0.8, size=(6, 6, 3))
    out = bilinear_resize(image, 12, 12)
    assert out.shape == (12, 12, 3)
    assert out.min() >= image.min() - 1e-12 and out.max() <= image.max() + 1e-12
    const = np.full((5, 5, 1), 0.37)
    assert np.allclose(bilinear_resize(const, 9, 9), 0.37)
    same = bilinear_resize(image, 6, 6)
    assert np.array_equal(same, image)
    batch = rng.uniform(0.0, 1.0, size=(4, 7, 5, 3))
    for out_h, out_w in ((12, 12), (3, 4), (7, 5)):
        singles = np.stack([bilinear_resize(img, out_h, out_w) for img in batch])
        assert bilinear_resize(batch, out_h, out_w).tobytes() == singles.tobytes()
