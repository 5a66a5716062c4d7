import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksc import checkpoint as ck
from blocksc import cubes
from blocksc.anderson import AndersonConfig
from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser
from blocksc.dictionary import Dictionary, normalize_atoms
from blocksc.pipeline import ModelBundle, bundle_entries, load_model_bundle, \
    save_model_bundle
from blocksc.training import Adam


class TestContainer:
    def test_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = {
            "a.matrix": rng.normal(size=(3, 4)),
            "b.vector": rng.normal(size=7).astype(np.float32),
            "c.counter": np.int64(42),
            "d.text": ck.pack_str("hello world"),
        }
        p = tmp_path / "x.dqc1"
        ck.save_checkpoint(p, entries)
        back = ck.load_checkpoint(p)
        assert set(back) == set(entries)
        assert np.array_equal(back["a.matrix"], entries["a.matrix"])
        assert back["b.vector"].dtype == np.float32
        assert back["c.counter"].shape == ()
        assert int(back["c.counter"]) == 42
        assert ck.unpack_str(back["d.text"]) == "hello world"

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {"w": rng.normal(size=(5, 5)), "meta": ck.pack_str("{}")}
        p1 = tmp_path / "a.dqc1"
        p2 = tmp_path / "b.dqc1"
        ck.save_checkpoint(p1, entries)
        ck.save_checkpoint(p2, ck.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.dqc1"
        p.write_bytes(b"NOTDQC10{}\n")
        with pytest.raises(ValueError, match="DQC1"):
            ck.load_checkpoint(p)

    def test_truncated_index(self, tmp_path):
        p = tmp_path / "x.dqc1"
        ck.save_checkpoint(p, {"w": np.ones(3)})
        raw = p.read_bytes()
        p.write_bytes(raw[:raw.index(b"\n")])
        with pytest.raises(ValueError, match=r"x\.dqc1: truncated index"):
            ck.load_checkpoint(p)

    def test_truncated_payload_names_the_entry(self, tmp_path):
        p = tmp_path / "x.dqc1"
        ck.save_checkpoint(p, {"a": np.ones(3), "b": np.ones(4)})
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match=r"x\.dqc1: entry 'b' needs"):
            ck.load_checkpoint(p)

    @pytest.mark.parametrize("field, value", [("dtype", "f16"),
                                              ("offset", -24),
                                              ("shape", [-1])])
    def test_bad_index_entry_names_the_entry(self, tmp_path, field, value):
        # offset -24 would slice [3., 7.] off the payload's end for 'b', and
        # shape [-1] would load whatever bytes follow its offset
        p = tmp_path / "x.dqc1"
        ck.save_checkpoint(p, {"a": np.array([1.0, 2.0, 3.0]),
                               "b": np.array([7.0, 8.0])})
        raw = p.read_bytes()
        end = raw.index(b"\n")
        index = json.loads(raw[8:end])
        index["b"][field] = value
        p.write_bytes(raw[:8] + json.dumps(index).encode() + raw[end:])
        with pytest.raises(ValueError, match=r"x\.dqc1: entry 'b' has dtype"):
            ck.load_checkpoint(p)


def small_bundle(seed=0):
    rng = np.random.default_rng(seed)
    D = Dictionary(normalize_atoms(rng.normal(size=(4, 6))))
    params = ModelParams(init_denoiser(4, hidden=3, seed=seed),
                         ScalarParams.from_values(0.8, 0.1))
    return ModelBundle(dictionary=D, params=params, engine="deq",
                       variant="fast", n=4,
                       anderson=AndersonConfig(m=4, max_iters=12, tol=1e-6),
                       K=6, support_size=2, meta={"sigma_255": 50})


class TestModelBundle:
    def test_round_trip_preserves_everything(self, tmp_path):
        bundle = small_bundle()
        p = tmp_path / "model.dqc1"
        save_model_bundle(p, bundle)
        back, opt = load_model_bundle(p)
        assert opt == {}
        assert np.array_equal(back.dictionary.atoms, bundle.dictionary.atoms)
        for w1, w2 in zip(back.params.denoiser.weights,
                          bundle.params.denoiser.weights):
            assert np.array_equal(w1, w2)
        assert back.engine == "deq" and back.variant == "fast"
        assert back.n == 4 and back.K == 6 and back.support_size == 2
        assert back.anderson == bundle.anderson
        assert back.meta["sigma_255"] == 50
        assert float(back.params.scalars.raw_b) == float(
            bundle.params.scalars.raw_b)

    def test_resave_byte_identical(self, tmp_path):
        bundle = small_bundle(seed=1)
        p1 = tmp_path / "m1.dqc1"
        p2 = tmp_path / "m2.dqc1"
        save_model_bundle(p1, bundle)
        back, _ = load_model_bundle(p1)
        save_model_bundle(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_setting_round_trips(self, tmp_path):
        settings = [f.name for f in fields(ModelBundle)
                    if f.name not in ("dictionary", "params", "meta")]
        bundle = replace(
            small_bundle(), engine="du", variant="full", n=5, K=4,
            support_size=3, anderson=AndersonConfig(
                m=3, beta=0.5, max_iters=7, tol=1e-3, ridge=1e-6))
        default = ModelBundle(bundle.dictionary, bundle.params)
        for name in settings:
            assert getattr(bundle, name) != getattr(default, name), name
        for f in fields(AndersonConfig):
            assert (getattr(bundle.anderson, f.name)
                    != getattr(default.anderson, f.name)), f.name
        p = tmp_path / "m.dqc1"
        save_model_bundle(p, bundle)
        back, _ = load_model_bundle(p)
        for name in settings:
            assert getattr(back, name) == getattr(bundle, name), name
        assert back.meta == bundle.meta

    def test_missing_settings_take_the_defaults(self, tmp_path):
        bundle = small_bundle(seed=5)
        entries = bundle_entries(bundle)
        entries["meta.json"] = ck.pack_str(json.dumps(
            {"engine": "du", "anderson": {"m": 3}, "note": "old"}))
        p = tmp_path / "m.dqc1"
        ck.save_checkpoint(p, entries)
        back, _ = load_model_bundle(p)
        assert back.engine == "du"
        assert back.anderson == AndersonConfig(m=3)
        default = ModelBundle(bundle.dictionary, bundle.params)
        for name in ("variant", "n", "K", "support_size"):
            assert getattr(back, name) == getattr(default, name), name
        assert back.meta == {"note": "old"}

    def test_bundle_holding_support_eps_loads(self, tmp_path):
        # bundles written while support_eps was a setting hold it in meta
        entries = bundle_entries(small_bundle(seed=6))
        meta = json.loads(ck.unpack_str(entries["meta.json"]))
        meta["support_eps"] = 1e-10
        entries["meta.json"] = ck.pack_str(json.dumps(meta, sort_keys=True))
        p1 = tmp_path / "old.dqc1"
        ck.save_checkpoint(p1, entries)
        back, _ = load_model_bundle(p1)
        assert back.meta == {"sigma_255": 50, "support_eps": 1e-10}
        p2 = tmp_path / "resaved.dqc1"
        save_model_bundle(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimizer_entries_round_trip(self, tmp_path):
        bundle = small_bundle(seed=2)
        opt = {"optimizer.t": np.float64(7),
               "optimizer.m.scalars.raw_b": np.float64(0.25)}
        p = tmp_path / "m.dqc1"
        save_model_bundle(p, bundle, optimizer_entries=opt)
        _, opt_back = load_model_bundle(p)
        assert opt_back["optimizer.t"].shape == ()
        assert float(opt_back["optimizer.t"]) == 7.0
        assert float(opt_back["optimizer.m.scalars.raw_b"]) == 0.25

    def test_adam_state_resumes_from_bundle(self, tmp_path):
        bundle = small_bundle(seed=3)
        params = bundle.params.as_dict()
        adam = Adam(1e-2)
        rng = np.random.default_rng(3)
        for _ in range(2):
            adam.step(params, {name: rng.normal(size=arr.shape)
                               for name, arr in params.items()})
        p = tmp_path / "m.dqc1"
        save_model_bundle(p, bundle, optimizer_entries=adam.state_entries())
        back, opt_back = load_model_bundle(p)
        resumed = Adam(1e-2)
        resumed.load_state_entries(opt_back)
        assert resumed.t == 2
        back_params = back.params.as_dict()
        assert set(resumed.m) == set(resumed.v) == set(back_params)
        for name, arr in back_params.items():
            assert resumed.m[name].shape == arr.shape
            assert resumed.v[name].shape == arr.shape
        resumed.step(back_params, {name: rng.normal(size=arr.shape)
                                   for name, arr in back_params.items()})
        assert resumed.t == 3

    def test_adam_resumes_from_bundle_with_scalars_stored_as_1(self, tmp_path):
        # files written before 0-d entries were kept 0-d hold every scalar
        # (the penalty scalars, optimizer.t, their moments) with shape [1]
        bundle = small_bundle(seed=4)
        params = bundle.params.as_dict()
        adam = Adam(1e-2)
        rng = np.random.default_rng(4)
        for _ in range(2):
            adam.step(params, {name: rng.normal(size=arr.shape)
                               for name, arr in params.items()})
        fresh = tmp_path / "fresh.dqc1"
        save_model_bundle(fresh, bundle, optimizer_entries=adam.state_entries())
        entries = ck.load_checkpoint(fresh)
        old = {name: arr.reshape(1) if arr.shape == () else arr
               for name, arr in entries.items()}
        assert sum(arr.shape == () for arr in entries.values()) == 7
        legacy = tmp_path / "legacy.dqc1"
        ck.save_checkpoint(legacy, old)
        assert ck.load_checkpoint(legacy)["optimizer.t"].shape == (1,)

        grads = {name: rng.normal(size=arr.shape)
                 for name, arr in params.items()}
        resumed = {}
        for path in (fresh, legacy):
            back, opt_back = load_model_bundle(path)
            opt = Adam(1e-2)
            opt.load_state_entries(opt_back)
            assert opt.t == 2
            back_params = back.params.as_dict()
            for name, arr in back_params.items():
                assert opt.m[name].shape == arr.shape
                assert opt.v[name].shape == arr.shape
            opt.step(back_params, grads)
            resumed[path] = back_params
        for name in params:
            assert np.array_equal(resumed[legacy][name], resumed[fresh][name])


def hsc1_file(payload=bytes(144), **header_fields):
    """A 2x3x3 f64 HSC1 file as (magic, header, payload); a field set to
    None is left out of the header."""
    header = {"bands": 2, "height": 3, "width": 3, "dtype": "f64",
              "order": "band-major", **header_fields}
    return cubes.MAGIC_HSC1, {k: v for k, v in header.items()
                              if v is not None}, payload


def dqc1_file(payload=bytes(40), **b_fields):
    """A DQC1 file of f64 entries a (3) and b (2), with ``b_fields`` set on
    b's index entry (None leaves the field out)."""
    b = {"dtype": "f64", "offset": 24, "shape": [2], **b_fields}
    return ck.MAGIC_DQC1, {"a": {"dtype": "f64", "offset": 0, "shape": [3]},
                           "b": {k: v for k, v in b.items()
                                 if v is not None}}, payload


# Each of these escaped the readers as an untyped error or an error that
# did not name the file, or loaded without complaint.
MALFORMED = {
    "hsc1-missing-width": hsc1_file(width=None),
    "hsc1-fractional-bands": hsc1_file(bands=2.5),
    "hsc1-list-header": (cubes.MAGIC_HSC1, [2, 3, 3], bytes(144)),
    "hsc1-invalid-json": (cubes.MAGIC_HSC1, b'{"bands": 2,', bytes(144)),
    "hsc1-bytes-past-payload": hsc1_file(payload=bytes(145)),
    "hsc1-zero-bands": hsc1_file(payload=b"", bands=0),
    "dqc1-int-shape": dqc1_file(shape=2),
    "dqc1-float-offset": dqc1_file(offset=24.0),
    "dqc1-missing-dtype": dqc1_file(dtype=None),
    "dqc1-overlapping-entries": dqc1_file(payload=bytes(32), offset=16),
    "dqc1-trailing-payload": dqc1_file(payload=bytes(48)),
    "dqc1-invalid-json": (ck.MAGIC_DQC1, b'{"a": }', bytes(40)),
    "dqc1-list-index": (ck.MAGIC_DQC1, [{"dtype": "f64"}], bytes(40)),
    "dqc1-overflowing-shape": dqc1_file(shape=[2**32, 2**32]),
    "dqc1-gap-between-entries": dqc1_file(payload=bytes(48), offset=32),
    "dqc1-bool-shape": dqc1_file(shape=[True, 2]),
    "dqc1-empty-entry": dqc1_file(payload=bytes(24), shape=None,
                                  dtype=None, offset=None),
    "dqc1-non-utf8-index": (ck.MAGIC_DQC1, b'{"\xff": 1}', bytes(0)),
    "dqc1-entry-not-an-object": (ck.MAGIC_DQC1, {**dqc1_file()[1], "b": 5},
                                 bytes(24)),
}


def write_framed(path, magic, header, payload):
    line = header if isinstance(header, bytes) else json.dumps(
        header).encode()
    path.write_bytes(magic + line + b"\n" + payload)


def read_any(path, magic):
    return (cubes.read_hsc1 if magic == cubes.MAGIC_HSC1
            else ck.load_checkpoint)(path)


class TestMalformedFiles:
    @pytest.mark.parametrize("magic", [cubes.MAGIC_HSC1, ck.MAGIC_DQC1])
    def test_the_unaltered_files_load(self, tmp_path, magic):
        p = tmp_path / "good.bin"
        write_framed(p, *(hsc1_file() if magic == cubes.MAGIC_HSC1
                          else dqc1_file()))
        read_any(p, magic)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_value_error_naming_the_file(self, tmp_path, case):
        magic, header, payload = MALFORMED[case]
        p = tmp_path / "bad.bin"
        write_framed(p, magic, header, payload)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            read_any(p, magic)

    @pytest.mark.parametrize("value", [None, "3"])
    @pytest.mark.parametrize("key", ["bands", "height", "width"])
    def test_hsc1_bad_dimension_names_the_key(self, tmp_path, key, value):
        p = tmp_path / "bad.hsc1"
        write_framed(p, *hsc1_file(**{key: value}))
        with pytest.raises(ValueError, match=re.escape(str(p))) as exc:
            cubes.read_hsc1(p)
        assert repr(key) in str(exc.value)

    def test_loaded_cube_is_not_copied_again(self, tmp_path):
        # the payload buffer read from the file is the cube's own memory
        p = tmp_path / "x.hsc1"
        cubes.write_hsc1(p, cubes.HyperCube(np.ones((2, 3, 3))))
        data = cubes.read_hsc1(p).data
        assert data.base.dtype == np.uint8 and data.base.nbytes == data.nbytes
        assert data.flags.aligned and data.flags.writeable


VALID_FILES = ["bundle.dqc1", "cube.f32.hsc1", "cube.f64.hsc1"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """(directory, name -> bytes) of a model bundle and of one cube stored
    as f64 and as f32."""
    root = tmp_path_factory.mktemp("containers")
    save_model_bundle(root / "bundle.dqc1", small_bundle(seed=7))
    cube = cubes.HyperCube(np.random.default_rng(30).uniform(size=(3, 4, 5)))
    for dtype in ("f64", "f32"):
        cubes.write_hsc1(root / f"cube.{dtype}.hsc1", cube, dtype=dtype)
    return root, {name: (root / name).read_bytes() for name in VALID_FILES}


def _load(path):
    if path.suffix == ".hsc1":
        return cubes.read_hsc1(path)
    return load_model_bundle(path)


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


class TestCorruptedFiles:
    """Truncated, extended, flipped and spliced copies of valid files."""

    @_FUZZ
    @given(name=st.sampled_from(VALID_FILES), data=st.data())
    def test_truncation_or_appended_bytes_raise(self, valid_files, name,
                                                 data):
        root, raw = valid_files
        good = raw[name]
        if data.draw(st.booleans(), label="truncate"):
            bad = good[:data.draw(st.integers(0, len(good) - 1), label="cut")]
        else:
            bad = good + data.draw(st.binary(min_size=1, max_size=16),
                                   label="tail")
        p = root / f"bad-{name}"
        p.write_bytes(bad)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            _load(p)

    @_FUZZ
    @given(name=st.sampled_from(VALID_FILES), data=st.data())
    def test_header_damage_loads_or_raises_value_error(self, valid_files,
                                                        name, data):
        root, raw = valid_files
        good = raw[name]
        line_end = good.index(b"\n")  # damage magic, header or its newline
        start = data.draw(st.integers(0, line_end), label="start")
        if data.draw(st.booleans(), label="flip"):
            flip = data.draw(st.integers(1, 255), label="xor")
            bad = good[:start] + bytes([good[start] ^ flip]) + good[start + 1:]
        else:
            stop = data.draw(st.integers(start, line_end + 1), label="stop")
            bad = good[:start] + data.draw(st.binary(max_size=12),
                                           label="splice") + good[stop:]
        p = root / f"bad-{name}"
        p.write_bytes(bad)
        try:
            _load(p)
        except ValueError as exc:
            assert str(p) in str(exc)


class TestBundleSettingsChecked:
    @pytest.mark.parametrize("field", ["n", "K", "support_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_bundle_rejects_sizes_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(small_bundle(), **{field: value})

    def test_anderson_rejects_no_iterations(self):
        with pytest.raises(ValueError, match="max_iters"):
            AndersonConfig(max_iters=0)

    def _write(self, path, change):
        entries = bundle_entries(small_bundle(seed=8))
        change(entries)
        ck.save_checkpoint(path, entries)

    @pytest.mark.parametrize("meta", [{"K": 0, "engine": "du"},
                                      {"anderson": {"max_iters": 0}},
                                      {"anderson": {"m": 3, "depth": 2}},
                                      {"anderson": [3]}])
    def test_bad_settings_name_the_file(self, tmp_path, meta):
        p = tmp_path / "m.dqc1"
        self._write(p, lambda e: e.update(
            {"meta.json": ck.pack_str(json.dumps(meta))}))
        with pytest.raises(ValueError, match=r"m\.dqc1: "):
            load_model_bundle(p)

    @pytest.mark.parametrize("anderson", [{"beta": float("nan")},
                                          {"tol": -1.0},
                                          {"tol": float("nan")},
                                          {"ridge": -1.0},
                                          {"ridge": float("nan")}])
    def test_bad_anderson_floats_name_the_file(self, tmp_path, anderson):
        p = tmp_path / "m.dqc1"
        meta = json.dumps({"anderson": anderson})  # NaN is written as NaN
        self._write(p, lambda e: e.update({"meta.json": ck.pack_str(meta)}))
        (name,) = anderson
        with pytest.raises(ValueError, match=rf"m\.dqc1: .*\b{name} must be"):
            load_model_bundle(p)

    @pytest.mark.parametrize("meta", ["[1, 2]", "3", "not json"])
    def test_meta_that_is_not_an_object_names_the_file(self, tmp_path, meta):
        p = tmp_path / "m.dqc1"
        self._write(p, lambda e: e.update({"meta.json": ck.pack_str(meta)}))
        with pytest.raises(ValueError, match=r"m\.dqc1: "):
            load_model_bundle(p)

    @pytest.mark.parametrize("name", ["meta.json", "dictionary.atoms",
                                      "denoiser.layer3.bias",
                                      "scalars.raw_mu"])
    def test_missing_entry_names_the_file_and_entry(self, tmp_path, name):
        p = tmp_path / "m.dqc1"
        self._write(p, lambda e: e.pop(name))
        with pytest.raises(ValueError,
                           match=rf"m\.dqc1: no entry '{re.escape(name)}'"):
            load_model_bundle(p)
