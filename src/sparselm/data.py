"""Corpus ingestion, BPE vocabulary learning, encoding, splitting, packing.

The tokenizer is byte-level beneath a whitespace/punctuation pre-split (a
stand-in for heavier word tokenizers; pre-tokenized text passes through
verbatim), so every input is encodable and decode(encode(text)) == text.
Special ids come first and never collide with learned tokens: end-of-doc,
padding, then a block of reserved virtual-prompt ids that the tokenizer
never emits for text.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

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


def read_corpus(path) -> list[Document]:
    """One JSON object {id, title, abstract, body?} per line, UTF-8."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            docs.append(Document(id=str(rec.get("id", line_no)),
                                 title=rec.get("title", "") or "",
                                 abstract=rec.get("abstract", "") or "",
                                 body=rec.get("body")))
    return docs


def write_corpus(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            rec = {"id": d.id, "title": d.title, "abstract": d.abstract}
            if d.body is not None:
                rec["body"] = d.body
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def pre_tokenize(text: str) -> list[str]:
    return _PRETOKEN_RE.findall(text)


@dataclass
class Vocab:
    """Ordered merge rules plus id maps. Ids: specials, 256 bytes, merges."""

    merges: list[tuple[bytes, bytes]]
    n_prompt_slots: int = DEFAULT_PROMPT_SLOTS
    token_to_id: dict = field(default_factory=dict, repr=False)
    id_to_token: dict = field(default_factory=dict, repr=False)
    _merge_ranks: dict = field(default_factory=dict, repr=False)
    _encode_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.eod_id = 0
        self.pad_id = 1
        self.prompt_ids = tuple(range(2, 2 + self.n_prompt_slots))
        base = 2 + self.n_prompt_slots
        self.token_to_id = {bytes([b]): base + b for b in range(N_BYTE_TOKENS)}
        for left, right in self.merges:
            merged = left + right
            if merged in self.token_to_id:
                raise ContractError(f"duplicate merge result {merged!r}")
            self.token_to_id[merged] = base + N_BYTE_TOKENS + len(self._merge_ranks)
            self._merge_ranks[(left, right)] = len(self._merge_ranks)
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}

    def __len__(self):
        return 2 + self.n_prompt_slots + N_BYTE_TOKENS + len(self.merges)

    @property
    def specials(self):
        return {"eod": self.eod_id, "pad": self.pad_id, "prompt": self.prompt_ids}

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
            left, right = self.merges[rank]
            out, i = [], 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
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


def learn_bpe(corpus, target_vocab_size: int,
              n_prompt_slots: int = DEFAULT_PROMPT_SLOTS) -> Vocab:
    """Merge the most frequent adjacent symbol pair until the target size is
    reached or no pair repeats. Ties break on the lexicographically smallest
    pair, so learning is deterministic for a given corpus."""
    base_size = 2 + n_prompt_slots + N_BYTE_TOKENS
    if target_vocab_size < base_size:
        raise ContractError(
            f"target vocab {target_vocab_size} below base alphabet + specials ({base_size})"
        )
    piece_freq = Counter()
    for item in corpus:
        text = document_text(item) if isinstance(item, Document) else item
        piece_freq.update(pre_tokenize(text))

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
        merged = left + right
        new_words = {}
        for word, freq in words.items():
            out, i = [], 0
            while i < len(word):
                if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + freq
        words = new_words
    return Vocab(merges=merges, n_prompt_slots=n_prompt_slots)


def save_vocab(path, vocab: Vocab):
    """Versioned text format: header, one hex-encoded merge per line, then
    the special-token table."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"sparselm-vocab v{VOCAB_FORMAT_VERSION} "
                 f"merges={len(vocab.merges)} prompt_slots={vocab.n_prompt_slots}\n")
        for left, right in vocab.merges:
            fh.write(f"{left.hex()} {right.hex()}\n")
        fh.write(f"#special eod {vocab.eod_id}\n")
        fh.write(f"#special pad {vocab.pad_id}\n")
        if vocab.prompt_ids:
            fh.write(f"#special prompt {vocab.prompt_ids[0]} {vocab.prompt_ids[-1]}\n")


def load_vocab(path) -> Vocab:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split()
        if len(header) != 4 or header[0] != "sparselm-vocab" or header[1] != f"v{VOCAB_FORMAT_VERSION}":
            raise ContractError(f"{path}: not a sparselm vocab file (header {header!r})")
        try:
            n_merges = int(header[2].partition("=")[2])
            n_prompt = int(header[3].partition("=")[2])
            merges = []
            for _ in range(n_merges):
                left, right = fh.readline().split()
                merges.append((bytes.fromhex(left), bytes.fromhex(right)))
        except ValueError as exc:  # a short merge list, a bad count or non-hex bytes
            raise ContractError(f"{path}: truncated or malformed vocab file ({exc})") from exc
    return Vocab(merges=merges, n_prompt_slots=n_prompt)


def split_train_val(docs, val_fraction: float = 0.03, seed: int = 0):
    """Seeded shuffle, then |val| = round(fraction * |docs|) from the front."""
    if not (0.0 <= val_fraction < 1.0):
        raise ContractError(f"val_fraction {val_fraction} outside [0, 1)")
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

    @property
    def token_count(self):
        return int(self.sequences.size)


def pack_sequences(encoded_docs, msl: int, eod_id: int) -> PackedDataset:
    """Concatenate each document's ids plus an end-of-document marker into
    one stream, then chunk into msl-length rows; the final partial chunk is
    dropped."""
    if msl < 2:
        raise ContractError(f"msl must be >= 2, got {msl}")
    stream = []
    for ids in encoded_docs:
        stream.extend(int(i) for i in ids)
        stream.append(eod_id)
    n = len(stream) // msl
    arr = np.asarray(stream[: n * msl], dtype=np.uint32).reshape(n, msl)
    offsets = (np.arange(n, dtype=np.uint64) * np.uint64(msl))
    return PackedDataset(sequences=arr, offsets=offsets, msl=msl)
