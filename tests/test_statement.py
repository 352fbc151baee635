"""Statement encoder and feature-store behavior."""

import json

import numpy as np
import pytest

from kgqa import io_utils
from kgqa.model.gradcheck import check_gradients
from kgqa.statement import SEP, UNK, FeatureStore, ToyStatementEncoder, build_vocab


def make_encoder(seed=0, d_embed=5, d_hidden=3, texts=("a b c", "c d")):
    vocab = build_vocab(texts)
    return ToyStatementEncoder(vocab, d_embed, d_hidden,
                               np.random.default_rng(seed))


def test_vocab_reserves_low_ids_and_sorts_tokens():
    vocab = build_vocab(["zebra apple", "apple mango"])
    assert vocab[SEP] == 0
    assert vocab[UNK] == 1
    assert vocab == {SEP: 0, UNK: 1, "apple": 2, "mango": 3, "zebra": 4}


def test_token_ids_insert_separator_and_map_unknowns():
    enc = make_encoder()
    ids = enc.token_ids("a b", "c zzz")
    vocab = enc.vocab
    assert list(ids) == [vocab["a"], vocab["b"], 0, vocab["c"], 1]


def test_encode_dimension_and_determinism():
    enc_a = make_encoder(seed=7)
    enc_b = make_encoder(seed=7)
    s1 = enc_a.forward([enc_a.token_ids("a b c", "d")])[0][0]
    s2 = enc_b.forward([enc_b.token_ids("a b c", "d")])[0][0]
    assert s1.shape == (enc_a.d_s,)
    assert enc_a.d_s == 2 * 3
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, enc_a.forward([enc_a.token_ids("a b c", "c")])[0][0])


def test_zero_weights_encode_to_zero_vector():
    enc = make_encoder()
    for p in enc.params().values():
        p[:] = 0
    assert np.allclose(enc.forward([enc.token_ids("a b", "c d")])[0][0], 0.0)


def test_encoder_gradients_match_finite_differences():
    enc = make_encoder(seed=3)
    ids = enc.token_ids("a b c", "d c")
    target = np.random.default_rng(9).standard_normal(enc.d_s)

    def loss_fn():
        s, _ = enc.forward([ids])
        diff = s[0] - target
        return 0.5 * float(diff @ diff)

    enc.zero_grad()
    s, cache = enc.forward([ids])
    enc.backward(s - target, cache)
    analytic = {name: g.copy() for name, g in enc.grads().items()}
    errs = check_gradients(loss_fn, enc.params(), analytic)
    assert max(errs.values()) < 1e-4


def test_feature_store_binary_round_trip(tmp_path):
    entries = {
        ("ex1", 0): np.array([1.5, -2.0, 0.25]),
        ("ex1", 1): np.array([0.0, 3.0, 1.0]),
        ("ex2", 0): np.array([9.0, 8.0, 7.0]),
    }
    path = tmp_path / "feat.bin"
    FeatureStore.write(path, entries)
    store = FeatureStore.load(path)
    assert store.dim == 3
    for key, vec in entries.items():
        got = store.get(*key)
        assert got.dtype == np.float64
        assert np.allclose(got, vec)


def test_feature_store_jsonl_round_trip(tmp_path):
    path = tmp_path / "feat.jsonl"
    path.write_text(
        '{"id": "q1", "candidate": 0, "vector": [1.0, 2.0]}\n'
        '\n'
        '{"id": "q1", "candidate": 1, "vector": [3.0, 4.0]}\n',
        encoding="utf-8")
    store = FeatureStore.load(path)
    assert store.dim == 2
    assert np.allclose(store.get("q1", 1), [3.0, 4.0])


def test_feature_store_lookup_is_verbatim():
    # values pass through untouched, no normalization
    rows = np.array([[0.125, -7.0, 1e3]], dtype=np.float32)
    store = FeatureStore({("e", 0): 0}, rows)
    assert np.array_equal(store.get("e", 0), rows[0].astype(np.float64))


def test_feature_store_missing_key_names_the_key():
    store = FeatureStore({("e", 0): 0}, np.zeros((1, 2)))
    with pytest.raises(KeyError, match=r"\('nope', 3\)"):
        store.get("nope", 3)


def test_feature_store_bad_jsonl_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "q1", "candidate": 0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        FeatureStore.load(path)


@pytest.mark.parametrize("second, message", [
    ([1.0, 2.0, 3.0], r"ragged.jsonl:2: feature vector has shape \[3\], expected \[2\]"),
    (5.0, r"ragged.jsonl:2: feature vector has shape \[\], expected \[2\]"),
])
def test_feature_store_jsonl_rows_of_unequal_width_report_line(tmp_path, second, message):
    path = tmp_path / "ragged.jsonl"
    rows = [{"id": "q", "candidate": 0, "vector": [1.0, 2.0]},
            {"id": "q", "candidate": 1, "vector": second}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        FeatureStore.load(path)


@pytest.mark.parametrize("key", ["q0", "q#x", "q#"])
def test_feature_store_binary_key_without_index_is_named(tmp_path, key):
    path = tmp_path / "feat.bin"
    FeatureStore.write(path, {("q", 0): np.ones(3)})
    meta, blocks = io_utils.read_container(path, kind="features")
    io_utils.write_container(path, "features", {**meta, "keys": [key]}, blocks)
    with pytest.raises(io_utils.ContainerError, match=f"feature key '{key}'"):
        FeatureStore.load(path)


def test_feature_store_empty_jsonl_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no feature rows"):
        FeatureStore.load(path)


def test_save_extra_meta_round_trips_shape():
    enc = make_encoder(seed=1, d_embed=4, d_hidden=2)
    meta = enc.save_extra_meta()
    # the widths live in the run config; the vocabulary alone fixes the rest
    assert meta == {"vocab": enc.vocab}
    again = ToyStatementEncoder(meta["vocab"], 4, 2, np.random.default_rng(0))
    assert {k: v.shape for k, v in again.params().items()} == \
        {k: v.shape for k, v in enc.params().items()}
