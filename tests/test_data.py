import hashlib
import os

import numpy as np
import pytest

from evograft.data import (MAX_CLASSES, DatasetError, GenSpec, TaskGenSpec,
                           bilinear_resize, generate_synthetic_tasks, load_task_dir,
                           parse_gen_spec, read_split, read_task_meta, write_split)


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


def test_labels_that_do_not_fit_the_u16_field_are_rejected(tmp_path):
    images = np.zeros((3, 4, 4, 3), dtype=np.uint8)
    path = tmp_path / "train.bin"
    for bad in (65536, 70000, -1):
        with pytest.raises(DatasetError, match=rf"train\.bin.*label {bad}\b.*0\.\.65535"):
            write_split(str(path), images, np.array([0, bad, 1]))
        assert not path.exists()
    write_split(str(path), images, np.array([0, 65535, 1]))
    assert read_split(str(path))[1].tolist() == [0, 65535, 1]


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


def test_a_meta_without_a_key_or_with_a_spaced_name_names_the_file(tmp_path):
    good = {"name": "alpha", "classes": "4", "h": "8", "w": "8", "c": "3"}
    for key in good:
        fields = {k: v for k, v in good.items() if k != key}
        (tmp_path / "meta").write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        with pytest.raises(DatasetError, match=rf"meta\b.*: missing {key}=$"):
            read_task_meta(str(tmp_path))
    for name in ("al pha", ""):
        fields = dict(good, name=name)
        (tmp_path / "meta").write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        with pytest.raises(DatasetError, match=r"meta\b.*task name must be whitespace-free"):
            read_task_meta(str(tmp_path))


def test_a_split_that_disagrees_with_its_meta_is_rejected(tmp_path):
    spec = GenSpec(tasks=[TaskGenSpec(name="alpha", classes=3, h=8, w=8, train=4, val=4,
                                      test=4)])
    (task_dir,) = generate_synthetic_tasks(spec, seed=3, out_dir=str(tmp_path))
    val = os.path.join(task_dir, "val.bin")
    images, labels = read_split(val)
    write_split(val, images[:, :4], labels)
    with pytest.raises(DatasetError, match=r"val\.bin dims disagree with meta$"):
        load_task_dir(task_dir)
    write_split(val, images, np.where(np.arange(len(labels)) == 1, 3, labels))
    with pytest.raises(DatasetError, match=r"val\.bin has labels out of range$"):
        load_task_dir(task_dir)
    write_split(val, images, np.full_like(labels, 2))
    assert load_task_dir(task_dir).split("val")[1].tolist() == [2] * len(labels)


def test_a_meta_size_below_one_names_the_file_and_the_field(tmp_path):
    good = {"name": "alpha", "classes": "4", "h": "8", "w": "8", "c": "3"}
    for field in ("classes", "h", "w", "c"):
        for bad in ("0", "-2"):
            fields = dict(good, **{field: bad})
            (tmp_path / "meta").write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
            with pytest.raises(DatasetError, match=rf"meta\b.*\b{field}= must be at least 1, "
                                                   rf"got {bad}$"):
                read_task_meta(str(tmp_path))
    # u16 labels can never reach a class above MAX_CLASSES
    (tmp_path / "meta").write_text("name=alpha\nclasses=1000000000\nh=8\nw=8\nc=3\n")
    with pytest.raises(DatasetError, match=rf"meta\b.*\bclasses= must be at most {MAX_CLASSES}, "
                                           r"got 1000000000$"):
        read_task_meta(str(tmp_path))
    # h=0 w=0 with empty splits used to load, then fail in run_plan at a numpy reshape
    (tmp_path / "meta").write_text("name=alpha\nclasses=4\nh=0\nw=0\nc=3\n")
    for split in ("train", "val", "test"):
        write_split(str(tmp_path / f"{split}.bin"), np.zeros((0, 0, 0, 3), np.uint8),
                    np.zeros(0, np.int64))
    with pytest.raises(DatasetError, match=r"meta\b.*\bh= must be at least 1"):
        load_task_dir(str(tmp_path))


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

    spec.tasks[1] = TaskGenSpec(name="b", classes=4, h=8, w=8, train=40)
    with pytest.raises(DatasetError, match="related tasks a and b must share image dims"):
        generate_synthetic_tasks(spec, seed=33, out_dir=str(tmp_path / "other"))
    assert not (tmp_path / "other").exists()


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
    for text, message in (
            ("task\n", "line 1: malformed task line: 'task'"),
            ("task a size=4\n", "line 1: unknown task field 'size'"),
            ("task a\ntask b\ntask a classes=2\n", "line 3: duplicate task name 'a'"),
            ("task a\ntask b\nrelate a b\n", "line 3: malformed relate line: 'relate a b'"),
            ("task a\ntask b\nrelate a b 0.5\n", "line 3: malformed relate line"),
            ("task a\ntask b\nrelate a b share=1.5\n", r"share must be in \[0, 1\], got 1.5"),
            ("task a\ntask b\nrelate a b share=-0.1\n", r"share must be in \[0, 1\], got -0.1")):
        with pytest.raises(DatasetError, match=f"^{message}"):
            parse_gen_spec(text)


def test_gen_spec_values_are_checked_where_the_spec_is_built():
    with pytest.raises(DatasetError, match="^line 2: bad value for classes=: 'abc'$"):
        parse_gen_spec("task a classes=4\ntask b classes=abc\n")
    for field in ("classes", "h", "w", "c", "train", "val", "test"):
        for value in (0, -1):
            with pytest.raises(DatasetError, match=f"^line 1: .*{field}= must be at least 1"):
                parse_gen_spec(f"task a {field}={value}\n")
            with pytest.raises(DatasetError, match=f"{field}= must be at least 1"):
                TaskGenSpec(**{"name": "a", "classes": 4, field: value})


def test_gen_spec_classes_must_fit_the_u16_labels():
    with pytest.raises(DatasetError, match="^line 1: classes= must be at most 65536, got 70000$"):
        parse_gen_spec("task a classes=70000\n")
    with pytest.raises(DatasetError, match="classes= must be at most 65536"):
        TaskGenSpec("a", 65537)
    assert TaskGenSpec("a", 65536).classes == 65536


def test_gen_spec_noise_must_be_finite_and_not_negative():
    for value in ("nan", "-0.5", "inf", "-inf"):
        with pytest.raises(DatasetError, match="^line 2: noise= must be a finite number"):
            parse_gen_spec(f"task a\ntask b noise={value}\n")
        with pytest.raises(DatasetError, match="noise= must be a finite number"):
            TaskGenSpec("a", 4, noise=float(value))
    assert TaskGenSpec("a", 4, noise=0.0).noise == 0.0


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
