import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import data as D


def make_vocab(corpus_texts, extra=6, slots=4):
    base = 2 + slots + 256
    return D.learn_bpe(corpus_texts, base + extra, n_prompt_slots=slots)


# ----------------------------------------------------------------- corpus


def test_filter_drops_title_only():
    docs = [
        D.Document(id="a", title="T", abstract=""),
        D.Document(id="b", title="T", abstract="x"),
        D.Document(id="c", title="T", abstract="", body="content"),
        D.Document(id="d", title="T", abstract="   "),
    ]
    kept = D.filter_corpus(docs)
    assert [d.id for d in kept] == ["b", "c"]


def test_filter_empty_input():
    assert D.filter_corpus([]) == []


def test_corpus_roundtrip(tmp_path):
    docs = [D.Document(id="1", title="Alpha", abstract="beta gamma"),
            D.Document(id="2", title="T", abstract="a", body="b")]
    path = tmp_path / "corpus.jsonl"
    D.write_corpus(path, docs)
    got = D.read_corpus(path)
    assert [(d.id, d.title, d.abstract, d.body) for d in got] == \
           [(d.id, d.title, d.abstract, d.body) for d in docs]


# -------------------------------------------------------------------- bpe


def test_first_merge_on_abab_fixture():
    vocab = D.learn_bpe(["abab abab"], 2 + 4 + 256 + 1, n_prompt_slots=4)
    assert vocab.merges == [(b"a", b"b")]  # pair count 4 beats (b, a) at 2


def test_single_character_corpus_learns_nothing():
    vocab = make_vocab(["a"])
    assert vocab.merges == []
    assert len(vocab) == 2 + 4 + 256


def test_learning_is_deterministic():
    corpus = ["the cat sat on the mat", "the cat ran"]
    a = D.learn_bpe(corpus, 300)
    b = D.learn_bpe(corpus, 300)
    assert a.merges == b.merges


def test_target_below_alphabet_is_error():
    with pytest.raises(ContractError):
        D.learn_bpe(["abc"], 100)


def test_roundtrip_on_corpus_documents():
    docs = [
        D.Document(id="1", title="Glucose metabolism", abstract="Cells burn glucose."),
        D.Document(id="2", title="Unicode", abstract="naïve café — ünïcode ✓"),
        D.Document(id="3", title="Code", abstract="f(x) = x**2, y[3]\n\ttabbed"),
    ]
    vocab = make_vocab([D.document_text(d) for d in docs], extra=20)
    for doc in docs:
        text = D.document_text(doc)
        assert vocab.decode(vocab.encode(text)) == text


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcde \n.!", max_size=60))
def test_roundtrip_property(text):
    vocab = make_vocab(["abc de. ab! cd"], extra=8)
    assert vocab.decode(vocab.encode(text)) == text


def test_specials_never_collide_and_never_emitted():
    vocab = make_vocab(["abab abab"], extra=4)
    ids = vocab.encode("abab abab literal text")
    special = {vocab.eod_id, vocab.pad_id, *vocab.prompt_ids}
    assert not special.intersection(ids)
    assert min(vocab.token_to_id.values()) == 2 + vocab.n_prompt_slots


def test_vocab_file_roundtrip(tmp_path):
    vocab = make_vocab(["the cat sat on the mat the cat"], extra=10)
    path = tmp_path / "vocab.txt"
    D.save_vocab(path, vocab)
    loaded = D.load_vocab(path)
    assert loaded.merges == vocab.merges
    assert loaded.n_prompt_slots == vocab.n_prompt_slots
    text = "the cat sat"
    assert loaded.encode(text) == vocab.encode(text)
    # byte-identical rewrite
    path2 = tmp_path / "vocab2.txt"
    D.save_vocab(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_load_vocab_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a vocab\n")
    with pytest.raises(ContractError):
        D.load_vocab(path)


def test_load_vocab_rejects_truncated_merge_list(tmp_path):
    vocab = D.learn_bpe(["abab abab cdcd cdcd"] * 3, 2 + D.DEFAULT_PROMPT_SLOTS + 256 + 3)
    path = tmp_path / "vocab.txt"
    D.save_vocab(path, vocab)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]))  # header promises 3 merges, 1 follows
    with pytest.raises(ContractError, match="truncated or malformed"):
        D.load_vocab(path)


def test_load_vocab_rejects_non_integer_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sparselm-vocab v1 merges=three prompt_slots=16\n")
    with pytest.raises(ContractError, match="truncated or malformed"):
        D.load_vocab(path)


# ------------------------------------------------------------------ split


def test_split_97_3():
    docs = [D.Document(id=str(i), abstract="x") for i in range(100)]
    train, val = D.split_train_val(docs, 0.03, seed=0)
    assert len(train) == 97 and len(val) == 3


def test_split_zero_fraction():
    docs = [D.Document(id=str(i), abstract="x") for i in range(10)]
    train, val = D.split_train_val(docs, 0.0, seed=0)
    assert len(train) == 10 and val == []


def test_split_is_disjoint_partition():
    docs = [D.Document(id=str(i), abstract="x") for i in range(37)]
    train, val = D.split_train_val(docs, 0.25, seed=5)
    ids = sorted(d.id for d in train) + sorted(d.id for d in val)
    assert sorted(ids) == sorted(d.id for d in docs)
    assert not {d.id for d in train} & {d.id for d in val}


def test_split_fraction_bounds():
    with pytest.raises(ContractError):
        D.split_train_val([], 1.0, seed=0)


# ------------------------------------------------------------------- pack


def test_pack_hand_example():
    ds = D.pack_sequences([[1, 2, 3], [4, 5, 6, 7]], msl=4, eod_id=9)
    assert ds.sequences.tolist() == [[1, 2, 3, 9], [4, 5, 6, 7]]
    assert ds.offsets.tolist() == [0, 4]


def test_pack_short_stream_is_empty():
    ds = D.pack_sequences([[1]], msl=4, eod_id=9)
    assert len(ds) == 0


def test_pack_token_conservation():
    docs = [[1, 2], [3], [4, 5, 6, 7, 8]]
    stream_len = sum(len(d) + 1 for d in docs)
    ds = D.pack_sequences(docs, msl=3, eod_id=0)
    assert ds.token_count == 3 * (stream_len // 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=50), max_size=8), max_size=8),
       st.integers(min_value=2, max_value=6))
def test_pack_preserves_order(docs, msl):
    ds = D.pack_sequences(docs, msl=msl, eod_id=0)
    stream = []
    for d in docs:
        stream.extend(d)
        stream.append(0)
    flat = ds.sequences.reshape(-1).tolist()
    assert flat == stream[: len(flat)]


def test_pack_msl_contract():
    with pytest.raises(ContractError):
        D.pack_sequences([[1, 2]], msl=1, eod_id=0)
