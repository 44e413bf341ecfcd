import contextlib
import errno
import json
import re
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselm.errors import ContractError
from sparselm import data as D
from toytask import write_corpus


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
    write_corpus(path, docs)
    got = D.read_corpus(path)
    assert [(d.id, d.title, d.abstract, d.body) for d in got] == \
           [(d.id, d.title, d.abstract, d.body) for d in docs]


# -------------------------------------------------------------------- bpe


def test_read_corpus_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"abstract": "ok"}\n\n{"abstract": "\xff"}\n')
    with pytest.raises(ContractError, match=f"{re.escape(str(path))}:3: invalid JSON"):
        D.read_corpus(path)


def test_csv_text_cell_rule():
    # a cell holding a comma, a quote or a line break is quoted, as csv.reader reads it
    rows = [(None, np.float64(0.1), 3, "x"), (np.float32(0.5), 1 / 3, np.int64(7), None),
            ("a,b", 'say "y"', -0.0, "l\nb")]
    assert D.csv_text(("a", "b", "c", "d"), rows) == (
        'a,b,c,d\n,0.1,3,x\n0.5,0.3333333333333333,7,\n"a,b","say ""y""",-0.0,"l\nb"\n')


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


def test_decode_refuses_an_id_outside_the_vocab_naming_it():
    vocab = make_vocab(["abab abab"], extra=4)
    text_ids = list(vocab.encode("ab"))
    assert vocab.decode([vocab.eod_id, *text_ids, len(vocab) - 1, vocab.pad_id]) \
        == "ab" + vocab.id_to_token[len(vocab) - 1].decode()
    for bad in (-1, len(vocab)):
        with pytest.raises(ContractError, match=re.escape(f"token id {bad} is outside")):
            vocab.decode([*text_ids, bad])


def test_vocab_is_its_merges_and_prompt_slots():
    # the id maps, merge ranks and encode cache are derived: encoding text
    # does not change what a vocab equals, and none is a constructor argument
    merges = make_vocab(["abab abab cdcd"], extra=4).merges
    used, fresh = D.Vocab(merges=merges), D.Vocab(merges=merges)
    used.encode("abab cd")
    assert used == fresh
    assert used != D.Vocab(merges=merges, n_prompt_slots=3)
    with pytest.raises(TypeError):
        D.Vocab(merges=merges, token_to_id={})


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


def saved_vocab(tmp_path, slots=4):
    """A saved vocab of three merges, its path and its record."""
    path = tmp_path / "vocab.json"
    D.save_vocab(path, make_vocab(["abab abab cdcd"], extra=3, slots=slots))
    return path, json.loads(path.read_text())


def test_vocab_file_is_one_json_record(tmp_path):
    path, _ = saved_vocab(tmp_path)
    assert path.read_bytes() == (b'{"format": "sparselm-vocab v2", '
                                 b'"merges": [["61", "62"], ["6162", "6162"], ["63", "64"]], '
                                 b'"prompt_slots": 4}\n')


def test_load_vocab_refuses_a_text_vocab_of_earlier_versions(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("sparselm-vocab v1 merges=1 prompt_slots=4\n61 62\n"
                    "#special eod 0\n#special pad 1\n#special prompt 2 5\n")
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: invalid JSON"):
        D.load_vocab(path)


def test_load_vocab_rejects_truncated_merge_list(tmp_path):
    path, _ = saved_vocab(tmp_path)
    text = path.read_text()
    path.write_text(text[:text.index('["6162"')])  # cut after the first merge
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: invalid JSON"):
        D.load_vocab(path)


@pytest.mark.parametrize("value", ["three", 4.0, True, None, [4]])
def test_load_vocab_rejects_non_integer_prompt_slots(tmp_path, value):
    path, record = saved_vocab(tmp_path)
    path.write_text(json.dumps(dict(record, prompt_slots=value)))
    message = f"{path}: 'prompt_slots' must be int, got {value!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("value", [-1, 3, "61 62", {"61": "62"}, None])
def test_load_vocab_rejects_merges_that_are_not_a_list(tmp_path, value):
    path, record = saved_vocab(tmp_path)
    path.write_text(json.dumps(dict(record, merges=value)))
    message = f"{path}: 'merges' must be list, got {value!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("merge", ["6162", ["61"], ["61", "62", "63"], ["6x", "62"],
                                   ["61", "6"], ["61", 62], {"61": "62"}, ["é1", "62"], []])
def test_load_vocab_rejects_a_merge_that_is_not_a_hex_pair_naming_its_index(tmp_path, merge):
    path, record = saved_vocab(tmp_path)
    record["merges"][1] = merge
    path.write_text(json.dumps(record))
    message = f"{path}: merge 1 must be a [left, right] pair of hex strings, got {merge!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("tag", ["sparselm-vocab v1", "sparselm-vocab v3", "",
                                 "SPARSELM-VOCAB V2"])
def test_load_vocab_rejects_a_wrong_format_tag(tmp_path, tag):
    path, record = saved_vocab(tmp_path)
    path.write_text(json.dumps(dict(record, format=tag)))
    message = (f"{path}: not a sparselm vocab file (format {tag!r}, "
               f"expected 'sparselm-vocab v2')")
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("key", ["format", "merges", "prompt_slots"])
def test_load_vocab_rejects_a_missing_key(tmp_path, key):
    path, record = saved_vocab(tmp_path)
    del record[key]
    path.write_text(json.dumps(record))
    with pytest.raises(ContractError, match=f"^{re.escape(f'{path}: missing key {key!r}')}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("key", ["special", "merge_count", "version"])
def test_load_vocab_rejects_an_unknown_key(tmp_path, key):
    path, record = saved_vocab(tmp_path)
    path.write_text(json.dumps(dict(record, **{key: 1})))
    with pytest.raises(ContractError, match=f"^{re.escape(f'{path}: unknown key {key!r}')}$"):
        D.load_vocab(path)


def test_load_vocab_rejects_a_duplicate_merge_naming_the_file(tmp_path):
    path, record = saved_vocab(tmp_path)
    record["merges"].append(["61", "62"])
    path.write_text(json.dumps(record))
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: duplicate merge result"):
        D.load_vocab(path)


def reference_learn_bpe(corpus, target_vocab_size, n_prompt_slots=D.DEFAULT_PROMPT_SLOTS):
    """The full-recount learner: every merge recounts every pair of every
    word and rewrites every word. Slow, but plainly right; the incremental
    `learn_bpe` must return the same merges."""
    base_size = 2 + n_prompt_slots + D.N_BYTE_TOKENS
    piece_freq = Counter()
    for item in corpus:
        text = D.document_text(item) if isinstance(item, D.Document) else item
        piece_freq.update(D.pre_tokenize(text))
    words = {tuple(bytes([b]) for b in piece.encode("utf-8")): freq
             for piece, freq in piece_freq.items()}
    merges = []
    while base_size + len(merges) < target_vocab_size:
        pair_counts = Counter()
        for word, freq in words.items():
            for pair in zip(word, word[1:]):
                pair_counts[pair] += freq
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)
        left, right = best
        new_words = {}
        for word, freq in words.items():
            out, i = [], 0
            while i < len(word):
                if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + freq
        words = new_words
    return merges


def zipf_texts(seed, n_docs, doc_words, n_words=2000):
    """Seeded documents over a fixed list of random words used by a Zipf law."""
    rng = np.random.default_rng(seed)
    letters = list("etaoinshrdlcumwfgypbvk")
    words = ["".join(rng.choice(letters, size=int(n))) for n in rng.integers(2, 10, size=n_words)]
    weights = 1.0 / np.arange(1, n_words + 1) ** 1.05
    picks = rng.choice(n_words, size=n_docs * doc_words, p=weights / weights.sum())
    return [" ".join(words[i] for i in picks[at:at + doc_words]) + "."
            for at in range(0, len(picks), doc_words)]


BASE_4 = 2 + 4 + 256  # base size with 4 prompt slots


@pytest.mark.parametrize("corpus, extra", [
    (["aaaa aaaa"], 3),                       # overlapping run: aaaa -> aa aa -> aaaa
    (["aaa aaaaa a aa"], 5),                  # odd runs leave a lone a behind
    (["abab abab", "abab"], 4),               # duplicate words
    (["ab ba", "cd dc"], 6),                  # ties broken on the smallest pair
    (["abc abc abd abd"], 6),                 # (b, c), (b, d) fall to zero once (a, b) merges
    (["naïve café — ünïcode ✓✓ ✓✓"], 12),    # multi-byte UTF-8 pieces
    (["f(x) = x**2, y[3]!!\n\t\ttabbed\n\n  "], 10),  # punctuation and whitespace
    (["a"], 5),                               # nothing repeats
    (["abab abab"], 0),                       # target is the base size
])
def test_learner_matches_full_recount(corpus, extra):
    got = D.learn_bpe(corpus, BASE_4 + extra, n_prompt_slots=4).merges
    assert got == reference_learn_bpe(corpus, BASE_4 + extra, n_prompt_slots=4)


def test_overlapping_run_merges_left_to_right():
    vocab = D.learn_bpe(["aaaa aaaa"], BASE_4 + 3, n_prompt_slots=4)
    assert vocab.merges == [(b"a", b"a"), (b"aa", b"aa")]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab é✓.,! \n\t", max_size=40), max_size=6),
       st.integers(min_value=0, max_value=40))
def test_learner_matches_full_recount_property(corpus, extra):
    got = D.learn_bpe(corpus, BASE_4 + extra, n_prompt_slots=4).merges
    assert got == reference_learn_bpe(corpus, BASE_4 + extra, n_prompt_slots=4)


def test_learner_vocab_file_matches_full_recount_on_zipf_corpus(tmp_path):
    corpus = zipf_texts(seed=11, n_docs=60, doc_words=100)
    target = 2 + D.DEFAULT_PROMPT_SLOTS + 256 + 220
    vocab = D.learn_bpe(corpus, target)
    assert len(vocab.merges) == 220
    D.save_vocab(tmp_path / "got.txt", vocab)
    D.save_vocab(tmp_path / "want.txt", D.Vocab(merges=reference_learn_bpe(corpus, target)))
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_load_vocab_rejects_non_utf8_bytes(tmp_path):
    path, _ = saved_vocab(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"sparselm-vocab", b"sparselm-voc\xe4b"))
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}:1: not UTF-8$"):
        D.load_vocab(path)


def test_negative_prompt_slots_rejected(tmp_path):
    with pytest.raises(ContractError, match="prompt_slots must be >= 0, got -3"):
        D.Vocab(merges=[], n_prompt_slots=-3)
    path, record = saved_vocab(tmp_path)
    path.write_text(json.dumps(dict(record, prompt_slots=-3)))
    message = f"{path}: prompt_slots must be >= 0, got -3"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        D.load_vocab(path)


@pytest.mark.parametrize("slots", [0, 1, 4])
def test_vocab_file_roundtrip_keeps_the_special_ids(tmp_path, slots):
    # the file holds no id: end-of-doc, padding and the prompt block follow
    # from the slot count alone
    path, record = saved_vocab(tmp_path, slots=slots)
    assert record["prompt_slots"] == slots
    loaded = D.load_vocab(path)
    vocab = make_vocab(["abab abab cdcd"], extra=3, slots=slots)
    assert loaded == vocab
    assert (loaded.eod_id, loaded.pad_id, loaded.prompt_ids) == \
        (vocab.eod_id, vocab.pad_id, vocab.prompt_ids) == (0, 1, tuple(range(2, 2 + slots)))
    assert len(loaded) == 2 + slots + 256 + 3


def test_save_vocab_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    path, _ = saved_vocab(tmp_path)
    before = path.read_bytes()
    real_open = D.atomic_open

    @contextlib.contextmanager
    def disk_full(target, *args, **kwargs):  # half the record is written, then the disk fills
        with real_open(target, *args, **kwargs) as fh:
            def write(text):
                fh.write(text[:len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            yield types.SimpleNamespace(write=write)

    monkeypatch.setattr(D, "atomic_open", disk_full)
    with pytest.raises(OSError):
        D.save_vocab(path, make_vocab(["the cat sat on the mat"], extra=5))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.json"]


PROPERTY_TEXTS = ["the cat sat on the mat the cat"]


def property_vocab_bytes(tmp_path_factory):
    """The bytes of a saved vocab of ten merges, the positions of its JSON
    punctuation and digits, and a path to write damaged copies to."""
    path = tmp_path_factory.getbasetemp() / "property-vocab.json"
    D.save_vocab(path, make_vocab(PROPERTY_TEXTS, extra=10))
    blob = path.read_bytes()
    framing = [i for i, c in enumerate(blob) if c in b'{}[]",:' or chr(c).isdigit()]
    return blob, framing, path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_vocab_bytes_raise_or_load_the_same_merges(tmp_path_factory, data):
    blob, framing, path = property_vocab_bytes(tmp_path_factory)
    cut = data.draw(st.one_of(st.sampled_from(framing), st.integers(0, len(blob))))
    path.write_bytes(blob[:cut])
    if cut < len(blob) - 1:  # the object is not whole
        with pytest.raises(ContractError):
            D.load_vocab(path)
    else:  # at most the final newline is gone
        assert D.load_vocab(path) == make_vocab(PROPERTY_TEXTS, extra=10)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flipped_vocab_bytes_raise_or_load_a_vocab(tmp_path_factory, data):
    blob, framing, path = property_vocab_bytes(tmp_path_factory)
    position = st.one_of(st.sampled_from(framing), st.integers(0, len(blob) - 1))
    flips = data.draw(st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=3))
    bad = bytearray(blob)
    for at, mask in flips:
        bad[at] ^= mask
    path.write_bytes(bytes(bad))
    # nothing but ContractError escapes; flips that cancel load the same vocab
    try:
        loaded = D.load_vocab(path)
    except ContractError:
        return
    assert isinstance(loaded, D.Vocab)
    if bytes(bad) == blob:
        assert loaded == make_vocab(PROPERTY_TEXTS, extra=10)


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


def test_pack_takes_numpy_integer_ids():
    ds = D.pack_sequences([np.arange(1, 4), [np.uint32(4), np.int64(5), 6, 7]], msl=4, eod_id=9)
    assert ds.sequences.tolist() == [[1, 2, 3, 9], [4, 5, 6, 7]]


@pytest.mark.parametrize("docs,message", [
    ([[1, 2], [3, 4.7, 5]], "document 1: 'float' object cannot be interpreted as an integer"),
    ([[1, 2], [3], [-1]], "document 2: token id -1 is outside [0, 2**32)"),
    ([[2**32]], "document 0: token id 4294967296 is outside [0, 2**32)"),
    ([[1], [2, 2**64]], "document 1: token id 18446744073709551616 is outside [0, 2**32)"),
])
def test_pack_rejects_an_id_that_is_not_a_uint32_naming_its_document(docs, message):
    # a float is not truncated to an id, nor an id uint32 cannot hold left to
    # numpy; an id in the dropped final partial chunk is checked too
    with pytest.raises(ContractError, match=re.escape(message)):
        D.pack_sequences(docs, msl=64, eod_id=0)


def test_pack_takes_a_generator_of_documents():
    docs = [[1, 2, 3], [4, 5, 6, 7], [8]]
    packed = D.pack_sequences(iter(docs), msl=3, eod_id=9)
    want = D.pack_sequences(docs, msl=3, eod_id=9)
    assert packed.sequences.tobytes() == want.sequences.tobytes()
    assert packed.offsets.tobytes() == want.offsets.tobytes()
    with pytest.raises(ContractError, match=re.escape("document 2: token id -1 is outside")):
        D.pack_sequences((d for d in [[1], [2], [3, -1]]), msl=3, eod_id=9)


def test_pack_short_stream_is_empty():
    ds = D.pack_sequences([[1]], msl=4, eod_id=9)
    assert len(ds) == 0


def test_pack_token_conservation():
    docs = [[1, 2], [3], [4, 5, 6, 7, 8]]
    stream_len = sum(len(d) + 1 for d in docs)
    ds = D.pack_sequences(docs, msl=3, eod_id=0)
    assert ds.sequences.size == 3 * (stream_len // 3)


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
