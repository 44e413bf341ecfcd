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

import bisect
import csv
import heapq
import io
import json
import operator
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .errors import ContractError, check_ranges, check_record

# whitespace runs / word runs / single punctuation marks; concatenation of
# the pieces reproduces the input exactly, which round-trip identity needs
_PRETOKEN_RE = re.compile(r"\s+|\w+|[^\w\s]", re.UNICODE)

N_BYTE_TOKENS = 256
DEFAULT_PROMPT_SLOTS = 16
FULL_SCALE_VOCAB_SIZE = 42_384
DESK_SCALE_VOCAB_SIZE = 512

VOCAB_FORMAT_VERSION = 1


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

    def _encode_piece(self, piece: str) -> list[int]:
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
        ids = [self.token_to_id[s] for s in symbols]
        self._encode_cache[piece] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        ids = []
        for piece in pre_tokenize(text):
            ids.extend(self._encode_piece(piece))
        return ids

    def decode(self, ids) -> str:
        chunks = []
        for i in ids:
            i = int(i)
            if i < 2 + self.n_prompt_slots:  # specials render as nothing
                continue
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


def _special_table(vocab: Vocab) -> list[str]:
    """The `#special` lines that close a vocab file."""
    lines = [f"#special eod {vocab.eod_id}", f"#special pad {vocab.pad_id}"]
    if vocab.prompt_ids:
        lines.append(f"#special prompt {vocab.prompt_ids[0]} {vocab.prompt_ids[-1]}")
    return lines


def save_vocab(path, vocab: Vocab):
    """Versioned text format: header, one hex-encoded merge per line, then
    the special-token table. Written atomically (`atomic_open`)."""
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write(f"sparselm-vocab v{VOCAB_FORMAT_VERSION} "
                 f"merges={len(vocab.merges)} prompt_slots={vocab.n_prompt_slots}\n")
        for left, right in vocab.merges:
            fh.write(f"{left.hex()} {right.hex()}\n")
        for line in _special_table(vocab):
            fh.write(line + "\n")


def load_vocab(path) -> Vocab:
    """Read a `save_vocab` file; anything else raises ContractError."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not a sparselm vocab file ({exc})") from exc
    header = lines[0].split() if lines else []
    if (len(header) != 4 or header[0] != "sparselm-vocab"
            or header[1] != f"v{VOCAB_FORMAT_VERSION}"
            or not header[2].startswith("merges=") or not header[3].startswith("prompt_slots=")):
        raise ContractError(f"{path}: not a sparselm vocab file (header {header!r})")
    try:
        n_merges = int(header[2].partition("=")[2])
        n_prompt = int(header[3].partition("=")[2])
        if n_merges < 0:
            raise ValueError(f"negative merge count {n_merges}")
        if len(lines) < 1 + n_merges:
            raise ValueError(f"header promises {n_merges} merges, {len(lines) - 1} lines follow")
        merges = []
        for line in lines[1:1 + n_merges]:
            left, right = line.split()
            merges.append((bytes.fromhex(left), bytes.fromhex(right)))
        vocab = Vocab(merges=merges, n_prompt_slots=n_prompt)
    except ValueError as exc:  # a short merge list, a bad count, non-hex bytes, a bad Vocab
        raise ContractError(f"{path}: truncated or malformed vocab file ({exc})") from exc
    table, expected = lines[1 + n_merges:], _special_table(vocab)
    if table != expected:
        raise ContractError(f"{path}: special-token table {table[:4]!r} does not match "
                            f"the ids of this vocab {expected!r}")
    return vocab


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
    one stream, then chunk into msl-length rows; the final partial chunk is
    dropped. An id that is not an integer in [0, 2**32) raises ContractError
    naming its document."""
    check_ranges({"msl": msl})
    stream, ends = [], []
    try:
        for ids in encoded_docs:
            stream.extend(map(operator.index, ids))
            stream.append(eod_id)
            ends.append(len(stream))
    except TypeError as exc:  # an id that is not an integer
        raise ContractError(f"document {len(ends)}: {exc}") from None
    top = np.iinfo(np.uint32).max
    try:
        arr = np.asarray(stream, dtype=np.int64)
        bad = arr.size and (arr.min() < 0 or arr.max() > top)
    except OverflowError:  # an id beyond int64
        bad = True
    if bad:
        at = next(k for k, i in enumerate(stream) if not 0 <= i <= top)
        raise ContractError(f"document {bisect.bisect_right(ends, at)}: token id {stream[at]} "
                            f"is outside [0, 2**32)")
    n = len(stream) // msl
    arr = arr[: n * msl].astype(np.uint32).reshape(n, msl)
    offsets = (np.arange(n, dtype=np.uint64) * np.uint64(msl))
    return PackedDataset(sequences=arr, offsets=offsets, msl=msl)
