"""Corpus ingestion, BPE vocabulary learning, encoding, splitting, packing,
and the one JSON reader (`read_json`, `read_jsonl`) and CSV writer (`csv_text`).

The tokenizer is byte-level beneath a whitespace/punctuation pre-split (a
stand-in for heavier word tokenizers; pre-tokenized text passes through
verbatim), so every input is encodable and decode(encode(text)) == text.
Special ids come first and never collide with learned tokens: end-of-doc,
padding, then a block of reserved virtual-prompt ids that the tokenizer
never emits for text.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import operator
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .errors import REQUIRED, ContractError, check_ranges, check_record, naming

# whitespace runs / word runs / single punctuation marks; concatenation of
# the pieces reproduces the input exactly, which round-trip identity needs
_PRETOKEN_RE = re.compile(r"\s+|\w+|[^\w\s]", re.UNICODE)

N_BYTE_TOKENS = 256
DEFAULT_PROMPT_SLOTS = 16
FULL_SCALE_VOCAB_SIZE = 42_384
DESK_SCALE_VOCAB_SIZE = 512

VOCAB_FORMAT = "sparselm-vocab v2"


@dataclass
class Document:
    id: str
    title: str = ""
    abstract: str = ""
    body: str | None = None


def document_text(doc: Document) -> str:
    parts = [p for p in (doc.title, doc.abstract, doc.body) if p]
    return "\n".join(parts)


def filter_corpus(docs):
    """Drop title-only items: keep documents with a non-empty abstract or body."""
    return [d for d in docs if (d.abstract and d.abstract.strip())
            or (d.body and d.body.strip())]


def read_text(path) -> str:
    """The UTF-8 text of `path`; other bytes raise ContractError naming `path:line`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}:{raw.count(10, 0, exc.start) + 1}: not UTF-8") from None


def read_json(path, shape, what):
    """The UTF-8 JSON object in `path` of `shape` (`errors.check_record`);
    anything else raises ContractError naming `path`."""
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: invalid JSON ({exc})") from exc
    return check_record(value, shape, path, what)


def read_jsonl(path, shape, what):
    """Yield (line number, record) for each non-blank line of a UTF-8 JSON-lines
    file, as `read_json` but naming `path:line`; a line may hold keys outside `shape`."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            if raw.strip():
                try:
                    value = json.loads(raw.decode("utf-8"))
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise ContractError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
                yield line_no, check_record(value, shape, f"{path}:{line_no}", what,
                                            extra_keys=True)


# a corpus line; `id` may be any value, and null or absent is the line number
CORPUS_LINE = {"id": (object, None), "title": (str, ""), "abstract": (str, ""), "body": (str, None)}


def read_corpus(path) -> list[Document]:
    """One JSON object {id, title, abstract, body?} of strings or nulls per line, UTF-8."""
    return [Document(id=str(line_no if rec["id"] is None else rec["id"]), title=rec["title"],
                     abstract=rec["abstract"], body=rec["body"])
            for line_no, rec in read_jsonl(path, CORPUS_LINE, "corpus fields")]


def csv_text(header, rows) -> str:
    """One newline-terminated CSV record for the header and each row: empty
    for None, `repr(float(x))` for any float (numpy's included), so the text
    parses back to the exact value, and `str(x)` for anything else; a cell
    holding `,`, `"` or a line break is quoted, so `csv.reader` gives it back."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in [header, *rows]:
        writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                         for x in row])
    return out.getvalue()


def pre_tokenize(text: str) -> list[str]:
    return _PRETOKEN_RE.findall(text)


@dataclass
class Vocab:
    """Ordered merge rules plus the id maps derived from them (not compared).
    Ids: specials, 256 bytes, merges."""

    merges: list[tuple[bytes, bytes]]
    n_prompt_slots: int = DEFAULT_PROMPT_SLOTS

    def __post_init__(self):
        check_ranges({"prompt_slots": self.n_prompt_slots})
        self.eod_id = 0
        self.pad_id = 1
        self.prompt_ids = tuple(range(2, 2 + self.n_prompt_slots))
        base = 2 + self.n_prompt_slots
        self.token_to_id = {bytes([b]): base + b for b in range(N_BYTE_TOKENS)}
        self._merge_ranks, self._encode_cache = {}, {}
        for left, right in self.merges:
            merged = left + right
            if merged in self.token_to_id:
                raise ContractError(f"duplicate merge result {merged!r}")
            self.token_to_id[merged] = base + N_BYTE_TOKENS + len(self._merge_ranks)
            self._merge_ranks[(left, right)] = len(self._merge_ranks)
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}

    def __len__(self):
        return 2 + self.n_prompt_slots + N_BYTE_TOKENS + len(self.merges)

    def _encode_piece(self, piece: str) -> bytes:
        """The ids of one pre-token, packed as `array('I')` bytes; cached."""
        cached = self._encode_cache.get(piece)
        if cached is not None:
            return cached
        symbols = [bytes([b]) for b in piece.encode("utf-8")]
        while len(symbols) >= 2:
            ranked = [
                (self._merge_ranks[pair], i)
                for i, pair in enumerate(zip(symbols, symbols[1:]))
                if pair in self._merge_ranks
            ]
            if not ranked:
                break
            rank, _ = min(ranked)
            symbols = _merge(symbols, *self.merges[rank])
        ids = array("I", [self.token_to_id[s] for s in symbols]).tobytes()
        self._encode_cache[piece] = ids
        return ids

    def encode(self, text: str) -> array:
        """The ids of `text` as an `array('I')`, 4 bytes an id: it iterates as
        Python ints and equals another array of the same ids (not a list)."""
        ids = array("I", b"".join(map(self._encode_piece, pre_tokenize(text))))
        return ids[:]  # a slice holds its length; `ids` holds 1/16 more for growth

    def decode(self, ids) -> str:
        """The text of `ids`, specials rendered as nothing; an id outside
        [0, len(self)) raises ContractError naming it."""
        n_special, size, chunks = 2 + self.n_prompt_slots, len(self), []
        for i in map(int, ids):
            if not 0 <= i < size:
                raise ContractError(f"token id {i} is outside the vocab [0, {size})")
            if i >= n_special:
                chunks.append(self.id_to_token[i])
        return b"".join(chunks).decode("utf-8", errors="replace")


def _merge(word: list[bytes], left: bytes, right: bytes) -> list[bytes]:
    """`word` with each (left, right) pair, left to right, joined into one symbol."""
    out, i = [], 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return out


def learn_bpe(corpus, target_vocab_size: int,
              n_prompt_slots: int = DEFAULT_PROMPT_SLOTS) -> Vocab:
    """Merge the most frequent adjacent symbol pair until the target size is
    reached or no pair repeats. Ties break on the lexicographically smallest
    pair, so learning is deterministic for a given corpus.

    Incremental (Sennrich et al., 2016): pair counts and a pair -> word index
    are built once; each merge rewrites only the words that hold the chosen
    pair and moves their pair counts. The next pair comes off a heap keyed
    (-count, pair); an entry whose count has since changed is stale and
    skipped, because every change pushes a fresh entry."""
    base_size = 2 + n_prompt_slots + N_BYTE_TOKENS
    if target_vocab_size < base_size:
        raise ContractError(
            f"target vocab {target_vocab_size} below base alphabet + specials ({base_size})"
        )
    piece_freq = Counter()
    for item in corpus:
        text = document_text(item) if isinstance(item, Document) else item
        piece_freq.update(pre_tokenize(text))

    words = [[bytes([b]) for b in piece.encode("utf-8")] for piece in piece_freq]
    freqs = list(piece_freq.values())
    pair_counts = Counter()
    where = defaultdict(set)  # pair -> indices of words that held it at some point
    for i, (word, freq) in enumerate(zip(words, freqs)):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += freq
            where[pair].add(i)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges = []
    while heap and base_size + len(merges) < target_vocab_size:
        neg_count, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg_count:
            continue
        if -neg_count < 2:
            break
        merges.append(best)
        delta = Counter()
        for i in where.pop(best):
            word, freq = words[i], freqs[i]
            out = _merge(word, *best)
            if len(out) == len(word):  # an earlier merge already took the pair apart
                continue
            for pair in zip(word, word[1:]):
                delta[pair] -= freq
            for pair in zip(out, out[1:]):
                delta[pair] += freq
                where[pair].add(i)
            words[i] = out
        for pair, change in delta.items():
            if change:
                count = pair_counts[pair] + change
                if count:
                    pair_counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    del pair_counts[pair]
    return Vocab(merges=merges, n_prompt_slots=n_prompt_slots)


# the vocab file: each merge is a [left, right] pair of hex strings, which
# `load_vocab` checks itself so that a fault names the merge, not the list
VOCAB_SHAPE = {"format": (str, REQUIRED), "merges": (list, REQUIRED),
               "prompt_slots": (int, REQUIRED)}


def save_vocab(path, vocab: Vocab):
    """One JSON object of `VOCAB_SHAPE`, keys sorted, written atomically (`atomic_open`)."""
    record = {"format": VOCAB_FORMAT, "prompt_slots": vocab.n_prompt_slots,
              "merges": [[left.hex(), right.hex()] for left, right in vocab.merges]}
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_vocab(path) -> Vocab:
    """Read a `save_vocab` file; anything else raises ContractError naming `path`."""
    record = read_json(path, VOCAB_SHAPE, "vocab fields")
    if record["format"] != VOCAB_FORMAT:
        raise ContractError(f"{path}: not a sparselm vocab file (format {record['format']!r}, "
                            f"expected {VOCAB_FORMAT!r})")
    merges = []
    with naming(path):
        for i, pair in enumerate(record["merges"]):
            left, right = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
            try:
                merges.append((bytes.fromhex(left), bytes.fromhex(right)))
            except (TypeError, ValueError):
                raise ContractError(f"merge {i} must be a [left, right] pair of hex strings, "
                                    f"got {pair!r}") from None
        return Vocab(merges=merges, n_prompt_slots=record["prompt_slots"])


def split_train_val(docs, val_fraction: float = 0.03, seed: int = 0):
    """Seeded shuffle, then |val| = round(fraction * |docs|) from the front."""
    check_ranges({"val_fraction": val_fraction})
    order = np.random.default_rng(seed).permutation(len(docs))
    n_val = int(np.floor(val_fraction * len(docs) + 0.5))
    val = [docs[i] for i in order[:n_val]]
    train = [docs[i] for i in order[n_val:]]
    return train, val


@dataclass
class PackedDataset:
    """Contiguous id stream chunked into fixed-length rows."""

    sequences: np.ndarray   # (n, msl) uint32
    offsets: np.ndarray     # (n,) uint64 start offset of each row in the stream
    msl: int

    def __len__(self):
        return self.sequences.shape[0]


def pack_sequences(encoded_docs, msl: int, eod_id: int) -> PackedDataset:
    """Concatenate each document's ids plus an end-of-document marker into
    one `array('I')` stream, then chunk it into msl-length rows, a numpy view
    of the stream; the final partial chunk is dropped. `encoded_docs` may be
    a generator. A document is any sequence of ints (a `Vocab.encode` array
    is copied whole; an `array` of another type code is refused). An id that
    is not an integer in [0, 2**32) raises ContractError naming its document."""
    check_ranges({"msl": msl})
    stream = array("I")
    for doc, ids in enumerate(encoded_docs):
        try:
            stream.extend(ids)
            stream.append(eod_id)
        except (TypeError, OverflowError) as exc:
            raise ContractError(f"document {doc}: {_id_fault([*ids, eod_id]) or exc}") from None
    n = len(stream) // msl
    sequences = np.frombuffer(stream, dtype=np.uintc, count=n * msl).reshape(n, msl)
    offsets = np.arange(n, dtype=np.uint64) * np.uint64(msl)
    return PackedDataset(sequences=sequences, offsets=offsets, msl=msl)


def _id_fault(ids):
    """Why the first of `ids` that is not an integer in [0, 2**32) is not, or
    None when every one is."""
    for i in ids:
        try:
            i = operator.index(i)
        except TypeError as exc:
            return str(exc)
        if not 0 <= i < 2**32:
            return f"token id {i} is outside [0, 2**32)"
    return None
